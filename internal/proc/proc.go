// Package proc bundles the processor-side view of a node: the software
// process, the processor cache, the memory bus, the statistics record, and
// the processor clock. NI models and the messaging layer charge
// processor-time costs through it, and run every memory access the
// processor makes as an access train (Train).
package proc

import (
	"nisim/internal/cache"
	"nisim/internal/membus"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// Proc is one node's processor context.
type Proc struct {
	ID    int
	Eng   *sim.Engine
	Bus   *membus.Bus
	Cache *cache.Cache
	Stats *stats.Node
	CPU   sim.Clock
	// P is the software process currently executing on this processor. The
	// machine layer sets it when it spawns the application.
	P *sim.Process
}

// Bind attaches the software process and wires time accounting.
func (pr *Proc) Bind(p *sim.Process) {
	pr.P = p
	p.Category = stats.Compute
	p.OnBlocked = pr.Stats.Account
}

// Compute spends n processor cycles of application computation.
func (pr *Proc) Compute(n int64) {
	pr.P.SleepAs(stats.Compute, pr.CPU.Cycles(n))
}

// Work spends n processor cycles attributed to the given category
// (stats.Transfer for messaging-layer instructions, etc.).
func (pr *Proc) Work(category int, n int64) {
	pr.P.SleepAs(category, pr.CPU.Cycles(n))
}
