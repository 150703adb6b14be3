package obs

import (
	"bytes"
	"testing"
)

// complete builds a measured KindComplete event whose phases sum to
// resp exactly (the engine guarantees this; tests construct it by
// picking dyadic values).
func complete(req int64, resp, wait, block, tx, svc float64) Event {
	return Event{
		T: 10, Kind: KindComplete, Pid: int(req % 4), Port: int(req % 2),
		Req: req, Aux: 1, Dur: resp,
		Wait: wait, Block: block, Tx: tx, Svc: svc,
	}
}

func TestAttrRecorderCountsAndPhases(t *testing.T) {
	a := NewAttrRecorder(8)
	// Warmup completion: counted, not attributed.
	warm := complete(0, 4, 1, 1, 1, 1)
	warm.Aux = 0
	a.Event(warm)
	// Non-complete kinds are ignored entirely.
	a.Event(Event{T: 1, Kind: KindArrival, Pid: 0})
	a.Event(complete(1, 4, 1, 0.5, 1.5, 1))
	a.Event(complete(2, 8, 2, 2, 2, 2))

	att := a.Report("run", nil)
	if att.Schema != AttrSchema {
		t.Fatalf("schema %q", att.Schema)
	}
	if att.Completed != 3 || att.Measured != 2 {
		t.Fatalf("completed %d measured %d, want 3/2", att.Completed, att.Measured)
	}
	if len(att.Phases) != 5 {
		t.Fatalf("got %d phases, want 5", len(att.Phases))
	}
	resp := att.Phase("resp")
	if resp.Count != 2 || resp.Sum != 12 {
		t.Fatalf("resp phase count %d sum %g, want 2/12", resp.Count, resp.Sum)
	}
	wait := att.Phase("wait")
	if wait.Count != 2 || wait.Sum != 3 {
		t.Fatalf("wait phase count %d sum %g, want 2/3", wait.Count, wait.Sum)
	}
	// The per-phase sums reconcile with the response sum, as the
	// engine's bit-exact decomposition guarantees.
	total := att.Phase("wait").Sum + att.Phase("block").Sum +
		att.Phase("tx").Sum + att.Phase("svc").Sum
	if total != resp.Sum {
		t.Fatalf("phase sums %g != resp sum %g", total, resp.Sum)
	}
}

func TestAttrRecorderTopKOrderAndTieBreak(t *testing.T) {
	a := NewAttrRecorder(3)
	a.Event(complete(5, 4, 1, 1, 1, 1))
	a.Event(complete(1, 8, 2, 2, 2, 2))
	a.Event(complete(9, 8, 2, 2, 2, 2)) // ties with req 1: later arrival ranks after
	a.Event(complete(3, 2, 0.5, 0.5, 0.5, 0.5))
	a.Event(complete(7, 16, 4, 4, 4, 4))

	att := a.Report("", nil)
	if len(att.Slowest) != 3 {
		t.Fatalf("got %d slowest, want 3", len(att.Slowest))
	}
	wantReq := []int64{7, 1, 9}
	for i, w := range wantReq {
		if att.Slowest[i].Req != w {
			t.Fatalf("slowest[%d].Req = %d, want %d (table %+v)", i, att.Slowest[i].Req, w, att.Slowest)
		}
	}
	if att.Slowest[0].Resp != 16 || att.Slowest[0].Wait != 4 {
		t.Fatalf("slowest[0] = %+v", att.Slowest[0])
	}
}

func TestAttrRecorderZeroK(t *testing.T) {
	for _, k := range []int{0, -3} {
		a := NewAttrRecorder(k)
		a.Event(complete(1, 4, 1, 1, 1, 1))
		if got := a.Report("", nil).Slowest; len(got) != 0 {
			t.Fatalf("k=%d kept %d entries", k, len(got))
		}
	}
}

func TestAttrRecorderEventZeroAlloc(t *testing.T) {
	a := NewAttrRecorder(4)
	// Pre-fill the top table so eviction-path inserts are exercised.
	for i := int64(0); i < 8; i++ {
		a.Event(complete(i, float64(1+i), 1, 0, float64(i), 0))
	}
	i := int64(8)
	allocs := testing.AllocsPerRun(1000, func() {
		a.Event(complete(i, float64(1+i%16), 1, 0, float64(i%16), 0))
		i++
	})
	if allocs != 0 {
		t.Fatalf("AttrRecorder.Event allocates %.1f per call", allocs)
	}
}

func TestAttributionRoundTripAndBytes(t *testing.T) {
	build := func() []Attribution {
		a := NewAttrRecorder(2)
		a.Event(complete(1, 4, 1, 1, 1, 1))
		a.Event(complete(2, 8, 2, 2, 2, 2))
		return []Attribution{a.Report("rep0", []BlockRow{
			{Name: "omega.stage_conflicts", Count: 7},
			{Name: "resource_block", Count: 3},
		})}
	}
	var b1, b2 bytes.Buffer
	if err := WriteAttributions(&b1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteAttributions(&b2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("equal reports serialized to different bytes")
	}

	got, err := ReadAttributions(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Label != "rep0" || got[0].Measured != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if len(got[0].Blocking) != 2 || got[0].Blocking[0].Count != 7 {
		t.Fatalf("round trip lost blocking rows: %+v", got[0].Blocking)
	}

	if _, err := ReadAttributions(bytes.NewBufferString(`{"schema":"nope","runs":[]}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}
