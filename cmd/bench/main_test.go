package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// row is a measured result without memory fields.
func row(name string, ns float64) result { return result{Name: name, NsPerOp: ns} }

// TestProbeGate table-tests the pairing of probe rows with their
// probe-off siblings and the limit on partitioned rows.
func TestProbeGate(t *testing.T) {
	const (
		xbar   = "BenchmarkEngineThroughput/4096/64x64x64_XBAR/1_rho=0.8"
		omega  = "BenchmarkEngineThroughput/16/1x16x16_OMEGA/2"
		shards = "BenchmarkShardedRun/4096/64x64x64_XBAR/1_rho=0.8_shards=8"
	)
	for _, tc := range []struct {
		name    string
		rows    []result
		wantErr string // "" when the gate must pass
	}{
		{
			name: "within limit",
			rows: []result{
				row(xbar, 100), row(xbar+"_probe=attr", 120), row(xbar+"_probe=series", 150),
				row(omega, 10), row(omega+"_probe=attr", 13),
			},
		},
		{
			name: "no probe rows",
			rows: []result{row(xbar, 100), row(shards, 50)},
		},
		{
			name:    "over limit",
			rows:    []result{row(xbar, 100), row(xbar+"_probe=attr", 151)},
			wantErr: xbar + "_probe=attr: 1.51×",
		},
		{
			name:    "series over limit",
			rows:    []result{row(xbar, 100), row(xbar+"_probe=attr", 110), row(xbar+"_probe=series", 250)},
			wantErr: xbar + "_probe=series: 2.50×",
		},
		{
			name: "single network not gated",
			rows: []result{row(omega, 10), row(omega+"_probe=attr", 11), row(omega+"_probe=series", 25)},
		},
		{
			name:    "single network missing sibling",
			rows:    []result{row(omega+"_probe=attr", 11)},
			wantErr: "probe-off sibling " + omega + " not measured",
		},
		{
			name:    "missing sibling",
			rows:    []result{row(xbar+"_probe=series", 100), row(omega, 10)},
			wantErr: "probe-off sibling " + xbar + " not measured",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := probeGate(io.Discard, document{Schema: schema, Results: tc.rows})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestParse pins the reading of `go test -bench -benchmem` output:
// GOMAXPROCS suffixes are stripped, custom metrics are skipped, ns/op,
// B/op and allocs/op each keep their own minimum over the runs, and the
// memory fields stay absent, not zero, for lines without -benchmem.
func TestParse(t *testing.T) {
	const out = `goos: linux
pkg: rsin
BenchmarkEngineThroughput/16/16x1x1_SBUS/2-8     3   18351133 ns/op   5120 B/op   12 allocs/op
BenchmarkEngineThroughput/16/16x1x1_SBUS/2-8     3   17000000 ns/op   6144 B/op   11 allocs/op
BenchmarkFig4-8   1   900 ns/op   0.52 d·μs(SBUS/2,ρ=.5)   0 B/op   0 allocs/op
BenchmarkNoMem    5   42.5 ns/op
BenchmarkNoMem    5   40 ns/op
--- FAIL: BenchmarkBroken
PASS
ok  	rsin	1.234s
`
	doc, err := parse([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(doc.Results)
	if err != nil {
		t.Fatal(err)
	}
	const want = `[` +
		`{"name":"BenchmarkEngineThroughput/16/16x1x1_SBUS/2","ns_per_op":17000000,"bytes_per_op":5120,"allocs_per_op":11},` +
		`{"name":"BenchmarkFig4","ns_per_op":900,"bytes_per_op":0,"allocs_per_op":0},` +
		`{"name":"BenchmarkNoMem","ns_per_op":40}]`
	if string(got) != want {
		t.Fatalf("parse =\n%s\nwant\n%s", got, want)
	}
	if _, err := parse([]byte("BenchmarkX-2 3 12x ns/op\n")); err == nil {
		t.Fatal("malformed ns/op parsed without error")
	}
}
