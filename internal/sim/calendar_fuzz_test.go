package sim

import "testing"

// FuzzCalendarVsHeap drives the calendar queue and the binary event
// heap side by side through the same operation sequence: every pop must
// return the identical event from both — same time, same seq, so
// timestamp ties resolve the same way — and draining at the end must
// yield the identical sequence. Each push draws an event kind from its
// op byte and packs it into seq as the kernel does; every popped event
// must unpack the kind it was pushed with. After every operation the
// event arena must balance (checkArena): live nodes plus free-list
// length equal the arena length. The corpus starts from FuzzEventHeap's
// seeds (same byte-pair encoding) plus entries that force the calendar
// through its grow/shrink resizes, the sparse global-minimum fallback,
// all-tied degenerate widths, and every event kind.
func FuzzCalendarVsHeap(f *testing.F) {
	// FuzzEventHeap's corpus.
	f.Add([]byte{})
	f.Add([]byte{0, 10, 2, 0, 4, 5, 1, 0, 1, 0})
	f.Add([]byte{0, 1, 2, 1, 4, 1, 1, 0, 3, 0, 5, 0})
	f.Add([]byte{1, 0, 0, 7, 1, 0, 1, 0})
	// A long push run: crosses the initial growAt threshold (16) twice,
	// so at least two grow resizes happen before the drain.
	long := make([]byte, 0, 100)
	for i := byte(0); i < 50; i++ {
		long = append(long, i*2, i*5)
	}
	f.Add(long)
	// Wide dynamic range: the op byte selects a time scale, so this mixes
	// sub-unit spacings with multi-thousand gaps — sparse years between
	// events force the full-revolution scan and the global-min fallback.
	f.Add([]byte{0, 1, 2, 200, 4, 3, 6, 255, 1, 0, 1, 0, 1, 0, 1, 0})
	// All-tied timestamps: degenerate span, width estimation falls back.
	f.Add([]byte{0, 7, 2, 7, 4, 7, 6, 7, 8, 7, 1, 0, 1, 0})
	// One push of each kind (op bits 3–4), tied and untied, then drained.
	f.Add([]byte{0, 3, 8, 3, 16, 3, 24, 3, 26, 1, 18, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cal := newCalendarQueue(0)
		var h eventHeap
		var kinds []eventKind // kinds[n] is the kind of the n-th push
		popped := func(got event) {
			n := got.seq >> kindBits
			if n >= uint64(len(kinds)) || got.kind() != kinds[n] {
				t.Fatalf("popped %+v: kind %d, pushed as push #%d of %d", got, got.kind(), n, len(kinds))
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, val := data[i], data[i+1]
			if op%2 == 0 {
				// Spread pushes across four time scales so a single input
				// can mix dense ties with sparse outliers.
				scale := [4]float64{1, 0.125, 64, 4096}[(op>>1)&3]
				kind := eventKind(op>>3) & 3
				e := event{time: float64(val) * scale, seq: packSeq(uint64(len(kinds)), kind), pid: int32(op)}
				kinds = append(kinds, kind)
				cal.push(e)
				h.push(e)
			} else if h.len() > 0 {
				want := h.pop()
				got := cal.pop()
				if got != want {
					t.Fatalf("pop diverged: calendar %+v, heap %+v", got, want)
				}
				popped(got)
			}
			if cal.len() != h.len() {
				t.Fatalf("count diverged: calendar %d vs heap %d", cal.len(), h.len())
			}
			if err := cal.checkArena(); err != nil {
				t.Fatalf("after op %d: %v", i/2, err)
			}
		}
		for h.len() > 0 {
			want := h.pop()
			got := cal.pop()
			if got != want {
				t.Fatalf("drain diverged: calendar %+v, heap %+v", got, want)
			}
			popped(got)
		}
		if cal.len() != 0 {
			t.Fatalf("calendar retained %d events after heap drained", cal.len())
		}
	})
}
