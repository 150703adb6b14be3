package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsInvalidFlags pins the flag combinations figures refuses
// before it regenerates anything.
func TestRunRejectsInvalidFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"shards with attr", []string{"-fig", "7", "-quick", "-shards", "2", "-attr", filepath.Join(dir, "attr.json")}, "-shards is incompatible with -attr/-series"},
		{"shards with series", []string{"-fig", "7", "-quick", "-shards", "2", "-series", filepath.Join(dir, "series.json")}, "-shards is incompatible with -attr/-series"},
		{"unknown figure", []string{"-fig", "99", "-timing=false"}, `unknown figure "99"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%q) succeeded", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) error %q, want it to mention %q", tc.args, err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%q) wrote to stdout:\n%s", tc.args, stdout.String())
			}
		})
	}
}

// TestRunTableI regenerates one artifact that needs no simulation.
func TestRunTableI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "table1", "-timing=false"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stdout.Len() == 0 {
		t.Error("Table I wrote nothing to stdout")
	}
	if stderr.Len() != 0 {
		t.Errorf("-timing=false still wrote to stderr: %q", stderr.String())
	}
}
