// Package mainmem models a node's DRAM main memory: the home for all
// cacheable application addresses and, for NIs that buffer messages in main
// memory (CNI_0Q_m, CNI_32Q_m, the Memory Channel-like NI), the home of the
// NI message queues.
package mainmem

import (
	"nisim/internal/membus"
	"nisim/internal/sim"
)

// Memory is a DRAM (or NI SRAM/DRAM) module: a fixed access latency plus a
// serialization constraint — the module services one access at a time, so
// back-to-back block transfers see queueing delay. This contention is what
// makes "via main memory" NI paths (StarT-JR-like, Memory Channel-like)
// slower under streaming than paths that keep messages in NI storage.
type Memory struct {
	name    string
	latency sim.Time
	// Clock providers call HomeLatency exactly once per transaction that
	// touches the module (the membus contract), so busyUntil can be
	// advanced there.
	busyUntil sim.Time
	eng       *sim.Engine

	// Reads and Writes count bus accesses that reached the module.
	Reads, Writes int64
}

// New returns a memory module with the given access latency (Table 3:
// 120 ns for main memory, 60 ns for NI SRAM). eng provides the current time
// for the serialization model; pass nil to disable serialization.
func New(name string, latency sim.Time, eng *sim.Engine) *Memory {
	return &Memory{name: name, latency: latency, eng: eng}
}

// TargetName implements membus.Target.
func (m *Memory) TargetName() string { return m.name }

// HomeLatency implements membus.Target. The bus calls it exactly once per
// transaction that the module services; the module counts the access and
// claims one access slot from time at.
func (m *Memory) HomeLatency(t *membus.Transaction, at sim.Time) sim.Time {
	if t.Kind.IsWrite() {
		m.Writes++
	} else {
		m.Reads++
	}
	return m.claim(at)
}

// Claim reserves one access slot without a bus transaction — used by NIs
// writing or reading their own local storage — and returns the delay from
// now until that access completes.
func (m *Memory) Claim() sim.Time {
	if m.eng == nil {
		return m.latency
	}
	return m.claim(m.eng.Now())
}

// claim takes the module's first free access slot from time at and
// returns the delay from at until that access completes.
func (m *Memory) claim(at sim.Time) sim.Time {
	if m.eng == nil {
		return m.latency
	}
	start := max(at, m.busyUntil)
	m.busyUntil = start + m.latency
	return m.busyUntil - at
}
