package sim

// eventHeap is a binary min-heap ordered by (time, seq): the reference
// pending-event structure the production calendar queue is checked
// against (FuzzEventHeap, FuzzCalendarVsHeap, the kernel differential
// matrix). A hand-rolled typed heap avoids the interface boxing of
// container/heap.
type eventHeap struct {
	items []event
}

//lint:hotpath
func (h *eventHeap) len() int { return len(h.items) }

//lint:hotpath
func (h *eventHeap) less(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

//lint:hotpath
func (h *eventHeap) push(e event) {
	//lint:ignore hotalloc heap growth stops at the run's peak pending-event count; pinned by TestHotStructuresZeroAlloc
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

//lint:hotpath
func (h *eventHeap) pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < last && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
