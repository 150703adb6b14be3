package config

import (
	"math"
	"math/bits"
	"testing"
)

// FuzzParse feeds arbitrary strings to Parse. It must never panic, and
// every configuration it accepts must round-trip through String and
// report the exact resource count i·k·r, computed here with
// overflow-checked multiplication.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"16/16x1x1 SBUS/2",
		"16/1x16x32 XBAR/1",
		"16/8x2x2 OMEGA/2",
		"16/1×16×16 CUBE/2",
		"4096/64x64x64 XBAR/1",
		" 16 / 2x8x1  bus / 16 ",
		"2/1x2x4611686018427387904 XBAR/4",
		"4/1x4x4 XBAR/4611686018427387905",
		"-16/-1x16x1 SBUS/2",
		"16/16x1x1 FOO/2",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(c.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q fails to parse: %v", s, c, c.String(), err)
		}
		if back != c {
			t.Fatalf("round trip of %q: %+v → %q → %+v", s, c, c.String(), back)
		}
		hi, ports := bits.Mul64(uint64(c.Networks), uint64(c.Outputs))
		if hi != 0 {
			t.Fatalf("%q accepted with i·k overflowing 64 bits", s)
		}
		hi, res := bits.Mul64(ports, uint64(c.PerPort))
		if hi != 0 || res > math.MaxInt {
			t.Fatalf("%q accepted with i·k·r overflowing int", s)
		}
		if got := c.TotalResources(); got != int(res) {
			t.Fatalf("%q: TotalResources = %d, exact i·k·r = %d", s, got, res)
		}
	})
}
