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

	// parked and ready are the handshake of Park and Return: the process
	// has parked, or the work ended before it could.
	parked, ready bool
}

// Bind attaches the software process and wires time accounting.
func (pr *Proc) Bind(p *sim.Process) {
	pr.P = p
	pr.parked, pr.ready = false, false
	p.Category = stats.Compute
	p.OnBlocked = pr.Stats.Account
}

// Park parks the process, uncharged (sim.Process.ParkUncharged), until
// the event-context work it has just started ends with Return: the one
// park of a call whose decisions need no software. Work that ended before
// the process could park (an empty train, zero cycles) leaves nothing to
// wait for, and Park returns at once. The work charges its own time
// (sim.Process.Charge).
//
//lint:hotpath
func (pr *Proc) Park() {
	if pr.ready {
		pr.ready = false
		return
	}
	pr.parked = true
	pr.P.ParkUncharged()
	pr.parked = false
}

// Return ends the event-context work the process parked on, in the slot
// where the process resumes: it resumes the parked process in place, or
// tells Park, still to come, not to park. Resuming a process that Drain
// killed does nothing.
//
//lint:hotpath
func (pr *Proc) Return() {
	if pr.parked {
		pr.P.Resume()
		return
	}
	pr.ready = true
}

// ReturnHandler is Return as a Handler whose recv is the *Proc: the done
// hook of event-context work that ends where its process resumes.
//
//lint:hotpath
func ReturnHandler(recv any, _ uint64) { recv.(*Proc).Return() }

// Compute spends n processor cycles of application computation.
func (pr *Proc) Compute(n int64) {
	pr.P.SleepAs(stats.Compute, pr.CPU.Cycles(n))
}

// Work spends n processor cycles attributed to the given category
// (stats.Transfer for messaging-layer instructions, etc.).
func (pr *Proc) Work(category int, n int64) {
	pr.P.SleepAs(category, pr.CPU.Cycles(n))
}
