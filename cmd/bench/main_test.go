package main

import (
	"io"
	"strings"
	"testing"
)

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
				{xbar, 100}, {xbar + "_probe=attr", 120}, {xbar + "_probe=series", 150},
				{omega, 10}, {omega + "_probe=attr", 13},
			},
		},
		{
			name: "no probe rows",
			rows: []result{{xbar, 100}, {shards, 50}},
		},
		{
			name:    "over limit",
			rows:    []result{{xbar, 100}, {xbar + "_probe=attr", 151}},
			wantErr: xbar + "_probe=attr: 1.51×",
		},
		{
			name:    "series over limit",
			rows:    []result{{xbar, 100}, {xbar + "_probe=attr", 110}, {xbar + "_probe=series", 250}},
			wantErr: xbar + "_probe=series: 2.50×",
		},
		{
			name: "single network not gated",
			rows: []result{{omega, 10}, {omega + "_probe=attr", 11}, {omega + "_probe=series", 25}},
		},
		{
			name:    "single network missing sibling",
			rows:    []result{{omega + "_probe=attr", 11}},
			wantErr: "probe-off sibling " + omega + " not measured",
		},
		{
			name:    "missing sibling",
			rows:    []result{{xbar + "_probe=series", 100}, {omega, 10}},
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
