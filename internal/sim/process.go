package sim

import (
	"errors"
	"fmt"
	"iter"
)

// Process is a cooperative coroutine running simulated software. Exactly one
// flow of control — either the engine's run loop or one process — executes
// at any instant: the engine resumes a process and the process suspends back
// through a direct coroutine switch (iter.Pull), so simulations remain fully
// deterministic and no goroutine is ever runnable alongside the engine.
//
// All Process methods except Done must be called from within the process's
// own body function.
type Process struct {
	eng  *Engine
	name string
	done bool

	// next resumes the coroutine until it suspends or finishes, stop
	// unwinds a suspended or unstarted coroutine, and yield (valid inside
	// the body) suspends back to whoever called next.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// older and newer link the engine's live processes in spawn order.
	older, newer *Process

	// Category is an opaque tag identifying what the simulated software is
	// currently doing (compute, data transfer, buffering stall, ...). Time
	// accounting layers read and restore it around blocking operations.
	Category int

	// OnBlocked, if non-nil, is invoked with (category, duration) every time
	// the process spends simulated time blocked. Higher layers use it to
	// attribute processor time.
	OnBlocked func(category int, d Time)
}

// errKilled unwinds a process that Drain kills while it is suspended. It
// panics out of suspend, runs the body's deferred functions, and is
// recovered by the process's own frame; no other panic value is recovered.
var errKilled = errors.New("sim: process killed")

// Spawn creates a process executing body and schedules it to start at the
// current simulation time. The body runs entirely inside engine time.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	// The coroutine runs body to completion, to a kill, or to a panic,
	// which iter.Pull re-raises in the engine's run loop.
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.finish()
		body(p)
	})
	e.procs.push(p)
	e.AfterEvent(0, procResume, p, 0)
	return p
}

// finish retires the process however its body ended, absorbing only the
// kill unwind.
func (p *Process) finish() {
	p.retire()
	if r := recover(); r != nil && r != errKilled {
		panic(r)
	}
}

// retire marks the process done and unlinks it from the live list.
func (p *Process) retire() {
	if !p.done {
		p.done = true
		p.eng.procs.remove(p)
	}
}

// procList links an engine's live processes in spawn order, so spawning
// and retiring a process are O(1) and Drain kills in a deterministic order.
type procList struct{ oldest, newest *Process }

func (l *procList) push(p *Process) {
	p.older = l.newest
	if l.newest != nil {
		l.newest.newer = p
	} else {
		l.oldest = p
	}
	l.newest = p
}

func (l *procList) remove(p *Process) {
	if p.older != nil {
		p.older.newer = p.newer
	} else {
		l.oldest = p.newer
	}
	if p.newer != nil {
		p.newer.older = p.older
	} else {
		l.newest = p.older
	}
	p.older, p.newer = nil, nil
}

// procResume is the shared typed-event handler that resumes a process. Every
// unpark, yield, and sleep wakeup in the simulation dispatches through this
// one function; using a method value (p.resume) instead would allocate a
// fresh closure per scheduling.
//
//lint:hotpath
func procResume(recv any, _ uint64) { recv.(*Process).resume() }

// resume switches to the process and returns when it suspends or finishes.
// Must be called from engine context (an event callback).
func (p *Process) resume() {
	if p.done {
		return
	}
	p.eng.resumes++
	p.next()
}

// suspend hands control back to the engine until the next resume. Must be
// called from process context. A false yield means the process is being
// killed; that includes a deferred function that blocks during the unwind.
func (p *Process) suspend() {
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
}

// kill terminates a suspended or unstarted process, running its deferred
// functions. An unstarted body never runs. Called from engine context.
func (p *Process) kill() {
	if p.done {
		return
	}
	p.stop()
	p.retire()
}

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Name returns the process's diagnostic name.
func (p *Process) Name() string { return p.name }

// Done reports whether the process has finished: its body returned or
// panicked, or Drain killed it.
func (p *Process) Done() bool { return p.done }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.now }

// Sleep blocks the process for d picoseconds of simulated time, attributing
// the time to the process's current Category.
//
//lint:hotpath
func (p *Process) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %s sleeping negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	start := p.eng.now
	p.eng.AfterEvent(d, procResume, p, 0)
	p.suspend()
	p.account(start)
}

// SleepAs is Sleep with an explicit accounting category, restoring the
// previous category afterwards.
//
//lint:hotpath
func (p *Process) SleepAs(category int, d Time) {
	prev := p.Category
	p.Category = category
	p.Sleep(d)
	p.Category = prev
}

// Yield reschedules the process at the current time, after all events
// already scheduled for this instant.
//
//lint:hotpath
func (p *Process) Yield() {
	p.eng.AfterEvent(0, procResume, p, 0)
	p.suspend()
}

// Park suspends the process until another component calls Unpark (directly
// or via a Cond). Blocked time is charged to the current Category.
//
//lint:hotpath
func (p *Process) Park() {
	start := p.eng.now
	p.suspend()
	p.account(start)
}

// ParkUncharged suspends the process, as Park does, without charging the
// blocked time to any category: event-context code that runs the
// process's work while it is parked charges each piece of that work to its
// own category with Charge.
//
//lint:hotpath
func (p *Process) ParkUncharged() { p.suspend() }

// Charge charges the time since start to category through OnBlocked, as a
// park that began at start and ends now in that category would. Event
// context may call it for a process parked with ParkUncharged.
//
//lint:hotpath
func (p *Process) Charge(category int, start Time) {
	if p.OnBlocked != nil {
		if d := p.eng.now - start; d > 0 {
			p.OnBlocked(category, d)
		}
	}
}

// Unpark schedules a parked process to resume at the current time. It is a
// no-op for done processes. Safe to call from engine or process context.
//
//lint:hotpath
func (p *Process) Unpark() {
	if p.done {
		return
	}
	p.eng.AfterEvent(0, procResume, p, 0)
}

// UnparkHandler is Unpark as a Handler whose recv is the *Process: the
// completion hook that wakes a process parked on an event-context step.
//
//lint:hotpath
func UnparkHandler(recv any, _ uint64) { recv.(*Process).Unpark() }

// Resume switches into the parked process now, from engine context, and
// returns when it suspends or finishes. An event that runs in the slot a
// process's wakeup would take, as the last continuation of work the
// process handed to event context does, resumes it in place instead of
// scheduling that wakeup. It is a no-op for a done process.
//
//lint:hotpath
func (p *Process) Resume() { p.resume() }

// ResumeHandler is Resume as a Handler whose recv is the *Process: the
// done hook of event-context work that ends in the slot where the process
// resumes.
//
//lint:hotpath
func ResumeHandler(recv any, _ uint64) { recv.(*Process).Resume() }

func (p *Process) account(start Time) { p.Charge(p.Category, start) }

// Cond is a condition variable for processes. The zero value is not usable;
// create with NewCond.
type Cond struct {
	eng     *Engine
	waiters []*Process
	// spare is the waiter array retired by the last Broadcast, reused as
	// the next waiters backing store so steady-state wait/broadcast cycles
	// ping-pong between two buffers instead of growing a fresh array each
	// cycle.
	spare []*Process
}

// NewCond returns a condition variable bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait parks p until Broadcast. As with sync.Cond, callers must
// re-check their predicate in a loop: wakeups are broadcast at time t and a
// competing process may consume the resource first.
//
//lint:hotpath
func (c *Cond) Wait(p *Process) {
	c.waiters = append(c.waiters, p) //lint:allow noalloc waiter list ping-pongs with Broadcast's retired buffer; it grows only to the peak waiter count
	p.Park()
}

// Broadcast wakes all waiting processes and retires the waiter array into
// spare, keeping the wakeup order (FIFO arrival) identical to an
// allocate-per-cycle implementation.
//
//lint:hotpath
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters, c.spare = c.spare[:0], ws
	for i, p := range ws {
		ws[i] = nil // drop the reference; the array outlives the wakeup
		p.Unpark()
	}
}

// Waiters returns the number of processes currently waiting.
func (c *Cond) Waiters() int { return len(c.waiters) }
