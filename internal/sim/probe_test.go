package sim

import (
	"bytes"
	"reflect"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/obs"
	"rsin/internal/omega"
)

func probeCfg(seed uint64) Config {
	return Config{
		Lambda:  0.4,
		MuN:     4,
		MuS:     1,
		Seed:    seed,
		Warmup:  50,
		Samples: 4000,
	}
}

func TestProbeDoesNotChangeResults(t *testing.T) {
	base, err := Run(crossbar.New(8, 4, 2), probeCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := probeCfg(7)
	cfg.Probe = obs.NewRecorder(reg)
	probed, err := Run(crossbar.New(8, 4, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Delay != probed.Delay || base.Completed != probed.Completed ||
		base.Telemetry != probed.Telemetry {
		t.Fatalf("attaching a probe changed the simulation:\nbase   %+v\nprobed %+v", base, probed)
	}
}

func TestProbeLifecycleIsConsistent(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg)
	cfg := probeCfg(11)
	cfg.Probe = rec
	res, err := Run(crossbar.New(8, 4, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	val := func(name string) int64 { return reg.Counter(name).Value() }
	arrivals, grants := val("sim.arrivals"), val("sim.grants")
	txDone, released := val("sim.transmit_done"), val("sim.released")
	if arrivals == 0 || grants == 0 {
		t.Fatalf("no lifecycle flow recorded: arrivals=%d grants=%d", arrivals, grants)
	}
	// Every grant begins a transmission; completions trail by in-flight.
	if txDone > grants || released > txDone {
		t.Errorf("lifecycle out of order: grants=%d txDone=%d released=%d", grants, txDone, released)
	}
	if grants-txDone > 8 || txDone-released > 8 {
		t.Errorf("more in-flight tasks than processors: grants=%d txDone=%d released=%d", grants, txDone, released)
	}
	// The probe sees the whole run (including warmup); the engine's
	// grant telemetry must agree with the probe's grant count.
	if res.Telemetry.Grants != grants {
		t.Errorf("probe grants %d != telemetry grants %d", grants, res.Telemetry.Grants)
	}
}

func TestProbeObservesOmegaRejects(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		Lambda:  0.9, // drive hard enough to force in-network rejects
		MuN:     2,
		MuS:     1,
		Seed:    3,
		Warmup:  10,
		Samples: 5000,
		Probe:   obs.NewRecorder(reg),
	}
	res, err := Run(omega.New(16, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Rejects == 0 {
		t.Skip("workload produced no in-network rejects; nothing to check")
	}
	probeRejects := reg.Counter("sim.rejects").Value()
	if probeRejects != res.Telemetry.Rejects {
		t.Errorf("probe saw %d rejects, network telemetry counted %d",
			probeRejects, res.Telemetry.Rejects)
	}
}

// telemetryOnly forwards a network's TelemetrySource but not its
// RejectSource, like a decorator written without knowing of it.
type telemetryOnly struct {
	core.Network
	tel core.TelemetrySource
}

func (w telemetryOnly) Telemetry() core.Telemetry { return w.tel.Telemetry() }

// TestProbeRejectsBehindTelemetryOnlyWrapper checks that a wrapper that
// forwards only TelemetrySource loses no reject: alone and as the
// sub-networks of a Partitioned, it must yield the bare network's exact
// event stream, reject events and grant Aux counts included.
func TestProbeRejectsBehindTelemetryOnlyWrapper(t *testing.T) {
	wrap := func(o *omega.Omega) core.Network { return telemetryOnly{Network: o, tel: o} }
	part := func(mk func(*omega.Omega) core.Network) core.Network {
		subs := make([]core.Network, 4)
		for i := range subs {
			subs[i] = mk(omega.New(16, 1))
		}
		return core.NewPartitioned(subs)
	}
	bare := func(o *omega.Omega) core.Network { return o }
	for _, c := range []struct {
		name          string
		bare, wrapped func() core.Network
	}{
		{"OMEGA", func() core.Network { return omega.New(16, 1) }, func() core.Network { return wrap(omega.New(16, 1)) }},
		{"PART-OMEGA", func() core.Network { return part(bare) }, func() core.Network { return part(wrap) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			events := func(net core.Network) []obs.Event {
				p := &captureProbe{}
				cfg := probeCfg(3)
				cfg.Lambda, cfg.MuN, cfg.Probe = 0.9, 2, p
				if _, err := Run(net, cfg); err != nil {
					t.Fatal(err)
				}
				return p.events
			}
			want, got := events(c.bare()), events(c.wrapped())
			rejects := 0
			for _, e := range want {
				if e.Kind == obs.KindReject {
					rejects++
				}
			}
			if rejects == 0 {
				t.Fatal("workload produced no reject events; nothing to compare")
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("event stream differs behind the wrapper (%d vs %d events)", len(want), len(got))
			}
		})
	}
}

func TestTraceBytesIdenticalAcrossRuns(t *testing.T) {
	render := func() []byte {
		tr := obs.NewTrace()
		cfg := probeCfg(19)
		cfg.Samples = 500
		cfg.Probe = tr
		if _, err := Run(bus.New(8, 4), cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteTraces(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different trace bytes")
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
}

func TestResultDetailsExposed(t *testing.T) {
	res, err := Run(crossbar.New(8, 4, 2), probeCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Details) == 0 {
		t.Fatal("crossbar run returned no detail counters")
	}
	byName := map[string]int64{}
	for _, c := range res.Details {
		byName[c.Name] = c.Value
	}
	if byName["xbar.cells_swept"] == 0 {
		t.Errorf("cells_swept missing or zero: %v", res.Details)
	}
	var portSum int64
	for name, v := range byName {
		if len(name) > 16 && name[:16] == "xbar.port_grants" {
			portSum += v
		}
	}
	if portSum != res.Telemetry.Grants {
		t.Errorf("per-port grants sum %d != total grants %d", portSum, res.Telemetry.Grants)
	}
}
