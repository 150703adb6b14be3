package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rsin/internal/obs"
)

// FuzzReaders feeds arbitrary bytes, as given and gzipped, to every
// rsintrace report: the attribution reader behind attr, top and diff,
// the series reader, and the Chrome-trace reader, which alone ungzips
// (openMaybeGzip). Malformed input must come back as an error, never a
// panic. The corpus starts from one valid document of each kind.
func FuzzReaders(f *testing.F) {
	dir := f.TempDir()
	attrPath := filepath.Join(dir, "attr.json")
	seriesPath := filepath.Join(dir, "series.json")
	writeTestAttr(f, attrPath, 1)
	writeTestSeries(f, seriesPath)
	for _, path := range []string{attrPath, seriesPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	tr := obs.NewTrace()
	for _, e := range []obs.Event{
		{T: 0.5, Kind: obs.KindArrival, Pid: 0},
		{T: 0.5, Kind: obs.KindReject, Pid: 0, Aux: 2},
		{T: 1, Kind: obs.KindGrant, Pid: 0, Port: 1, Aux: 1},
		{T: 1, Kind: obs.KindTransmitStart, Pid: 0, Port: 1, Dur: 0.5},
		{T: 2, Kind: obs.KindTransmitEnd, Pid: 0, Port: 1},
		{T: 3, Kind: obs.KindRelease, Pid: 0, Port: 1, Dur: 1},
	} {
		tr.Event(e)
	}
	var trace bytes.Buffer
	if err := obs.WriteTraces(&trace, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes())
	f.Add([]byte(`{"schema":"rsin-series-set/1","runs":[{"schema":"rsin-series/1","dt":0}]}`))
	f.Add([]byte{0x1f, 0x8b})

	f.Fuzz(func(t *testing.T, data []byte) {
		var zipped bytes.Buffer
		zw := gzip.NewWriter(&zipped)
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for i, content := range [][]byte{data, zipped.Bytes()} {
			path := filepath.Join(dir, []string{"raw", "gz"}[i])
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			// Errors are the expected outcome for most inputs; the
			// property under test is that none of these panics.
			_ = runAttr(io.Discard, path, false)
			_ = runAttr(io.Discard, path, true)
			_ = runTop(io.Discard, path, 3)
			_, _ = runDiff(io.Discard, path, path, 0.05)
			_ = runSeries(io.Discard, path, false)
			_ = runSeries(io.Discard, path, true)
			_ = runTrace(io.Discard, path)
		}
	})
}
