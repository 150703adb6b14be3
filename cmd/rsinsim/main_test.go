package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsInvalidFlags pins the flag combinations rsinsim refuses
// before it simulates anything.
func TestRunRejectsInvalidFlags(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"metrics with shards", []string{"-config", "16/4x4x4 XBAR/2", "-shards", "2", "-metrics", metrics}, "-metrics is not supported with -shards"},
		{"negative shards", []string{"-config", "16/4x4x4 XBAR/2", "-shards", "-1"}, "-shards must be non-negative"},
		{"analytic on XBAR", []string{"-config", "16/4x4x4 XBAR/2", "-analytic"}, "-analytic supports SBUS configurations only"},
		{"malformed config", []string{"-config", "16/4x4 XBAR/2"}, "config"},
		{"unknown flag", []string{"-bogus"}, "not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%q) succeeded; stdout:\n%s", tc.args, stdout.String())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) error %q, want it to mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunAnalytic runs the exact Markov path end to end.
func TestRunAnalytic(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-config", "16/16x1x1 SBUS/2", "-rho", "0.5", "-analytic"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	for _, want := range []string{"configuration: 16/16x1x1 SBUS/2", "analytic delay d", "normalized delay d·μs"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}
