package main

import (
	"os"
	"testing"

	"rsin/internal/obs"
)

// writeTestAttr writes a one-run attribution file whose phase values
// scale with the given factor (so two files with different scales diff
// as a uniform regression).
func writeTestAttr(t testing.TB, path string, scale float64) {
	t.Helper()
	a := obs.NewAttrRecorder(4)
	mk := func(req int64, resp, wait, block, tx, svc float64) obs.Event {
		return obs.Event{
			T: 10, Kind: obs.KindComplete, Pid: int(req), Port: 0,
			Req: req, Aux: 1, Dur: resp * scale,
			Wait: wait * scale, Block: block * scale, Tx: tx * scale, Svc: svc * scale,
		}
	}
	a.Event(mk(0, 4, 1, 1, 1, 1))
	a.Event(mk(1, 8, 2, 2, 2, 2))
	att := a.Report("test run", []obs.BlockRow{
		{Name: "acquire_attempts", Count: 10},
		{Name: "path_block", Count: 3},
	})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteAttributions(f, []obs.Attribution{att}); err != nil {
		t.Fatal(err)
	}
}

// writeTestSeries writes a one-run series file.
func writeTestSeries(t testing.TB, path string) {
	t.Helper()
	s := obs.NewSeriesRecorder(2, 1)
	s.Event(obs.Event{T: 0.5, Kind: obs.KindEnqueue, Pid: 0, Aux: 1})
	s.Event(obs.Event{T: 0.5, Kind: obs.KindTransmitStart, Pid: 0, Port: 0})
	s.Event(obs.Event{T: 2.5, Kind: obs.KindTransmitEnd, Pid: 0, Port: 0})
	s.Event(obs.Event{T: 3.5, Kind: obs.KindRelease, Pid: 0, Port: 0})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteSeries(f, []obs.Series{s.Finish("test run", 4)}); err != nil {
		t.Fatal(err)
	}
}
