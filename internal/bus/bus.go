// Package bus implements the single-shared-bus RSIN of paper Section
// III: p processors time-share one bus that feeds r identical resources
// on a single output port.
//
// Status information (the count of free resources) is broadcast on the
// bus to every processor, so a processor attempts transmission exactly
// when the bus is idle and at least one resource is free; an arbitrator
// picks one winner when several processors contend (the arbitration
// order is the engine's WakePolicy). The bus is held for the duration of
// the task transmission; the resource is reserved at allocation time and
// released only when service completes, matching the Markov model in
// internal/markov (whose states never show a transmission in progress
// with zero free resources).
package bus

import (
	"fmt"

	"rsin/internal/core"
)

// Bus is a single shared bus with r resources on its one output port.
type Bus struct {
	processors int
	resources  int

	busBusy bool
	free    int
	tel     core.Telemetry
}

// New returns a bus connecting processors processors to resources
// resources.
func New(processors, resources int) *Bus {
	if processors <= 0 || resources <= 0 {
		panic(fmt.Sprintf("bus: invalid shape %d processors, %d resources", processors, resources))
	}
	return &Bus{processors: processors, resources: resources, free: resources}
}

// Acquire implements core.Network. It succeeds when the bus is idle and
// a free resource exists, reserving both.
//
//lint:hotpath called once per allocation attempt in the event loop
func (b *Bus) Acquire(pid int) (core.Grant, bool) {
	if pid < 0 || pid >= b.processors {
		panic(fmt.Sprintf("bus: processor %d out of range", pid))
	}
	b.tel.Attempts++
	if b.busBusy || b.free == 0 {
		b.tel.Failures++
		if b.free == 0 {
			b.tel.ResourceBlock++
		} else {
			b.tel.PathBlock++
		}
		return core.Grant{}, false
	}
	b.busBusy = true
	b.free--
	b.tel.Grants++
	return core.Grant{Processor: pid, Port: 0}, true
}

// AcquireWouldFail implements core.AvailabilityHinter: the bus's
// broadcast status (bus idle, free-resource count) decides every
// Acquire outcome outright, so the hint is exact. A hopeless probe is
// accounted in telemetry exactly as Acquire's failure path would have,
// per the interface contract.
//
//lint:hotpath probed by every wake pass
func (b *Bus) AcquireWouldFail(pid int) bool { return b.AcquireWouldFailN(pid, 1) }

// HintSpan implements core.BlockHinter: every processor hears the one
// status broadcast.
func (b *Bus) HintSpan() int { return b.processors }

// AcquireWouldFailN implements core.BlockHinter: the answer ignores
// pid, and a true answer accounts n hopeless probes at once.
//
//lint:hotpath charges a hopeless block of waiters in one call
func (b *Bus) AcquireWouldFailN(pid, n int) bool {
	if pid < 0 || pid >= b.processors {
		panic(fmt.Sprintf("bus: processor %d out of range", pid))
	}
	if !b.busBusy && b.free > 0 {
		return false
	}
	b.tel.Attempts += int64(n)
	b.tel.Failures += int64(n)
	if b.free == 0 {
		b.tel.ResourceBlock += int64(n)
	} else {
		b.tel.PathBlock += int64(n)
	}
	return true
}

// ReleasePath implements core.Network: transmission finished, the bus
// becomes free while the resource starts service.
//
//lint:hotpath
func (b *Bus) ReleasePath(core.Grant) {
	if !b.busBusy {
		panic("bus: ReleasePath with idle bus")
	}
	b.busBusy = false
}

// ReleaseResource implements core.Network: service finished.
//
//lint:hotpath
func (b *Bus) ReleaseResource(core.Grant) {
	if b.free >= b.resources {
		panic("bus: ReleaseResource overflow")
	}
	b.free++
}

// Processors implements core.Network.
func (b *Bus) Processors() int { return b.processors }

// Ports implements core.Network.
func (b *Bus) Ports() int { return 1 }

// TotalResources implements core.Network.
func (b *Bus) TotalResources() int { return b.resources }

// Name implements core.Network.
func (b *Bus) Name() string {
	return fmt.Sprintf("SBUS(p=%d,r=%d)", b.processors, b.resources)
}

// Telemetry implements core.TelemetrySource.
func (b *Bus) Telemetry() core.Telemetry { return b.tel }

// Rejects implements core.RejectSource. The bus never rejects inside
// its fabric, so the counter stays 0; reading it directly spares a
// probed run the Telemetry copy core.RejectsOf would otherwise make
// around every Acquire.
//
//lint:hotpath read around every Acquire when a probe is attached
func (b *Bus) Rejects(int) int64 { return b.tel.Rejects }

// FreeResources reports the current number of unreserved resources —
// the status count the bus broadcasts to its processors.
func (b *Bus) FreeResources() int { return b.free }

// Busy reports whether a transmission currently holds the bus.
func (b *Bus) Busy() bool { return b.busBusy }

var _ core.Network = (*Bus)(nil)
var _ core.TelemetrySource = (*Bus)(nil)
var _ core.BlockHinter = (*Bus)(nil)
var _ core.RejectSource = (*Bus)(nil)
