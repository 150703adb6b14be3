package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRecommends(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-cost", "comparable", "-ratio", "0.2"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := "COSTnet ~= COSTres, μs/μn = 0.2 (small regime):\n  use a large number of small multistage networks and a larger number of resources\n"
	if got := stdout.String(); got != want {
		t.Errorf("stdout = %q, want %q", got, want)
	}
}

func TestRunRejectsUnknownCost(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-cost", "free"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `unknown -cost "free"`) {
		t.Fatalf("run error = %v, want unknown -cost", err)
	}
}
