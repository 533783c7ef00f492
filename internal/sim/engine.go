// Package sim provides a deterministic discrete-event simulation engine
// with two programming models: typed scheduled events for hardware
// state machines, and cooperative processes (coroutines that the engine
// switches to and from directly, via iter.Pull) for software running on
// simulated processors.
//
// Simulated time is measured in integer picoseconds so that every clock in
// the modeled system (1 GHz processor, 250 MHz memory bus, 40 ns network,
// 60/120 ns device memories) has an exact integral period.
package sim

import (
	"fmt"
	"strings"
)

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// the cooperative-process machinery guarantees that at most one flow of
// control touches the engine at any instant.
type Engine struct {
	now     Time
	seq     uint64
	pq      eventHeap
	pool    *event // free list of recycled event records
	pooled  int
	procs   procList // live processes, in spawn order
	stopped bool
	stepped uint64 // number of events executed
	resumes uint64 // number of switches into a process

	quiescence []func() string
}

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.stepped }

// Resumes returns the number of times the engine has switched into a
// process, a process's start included. Each is one host coroutine switch
// there and one back, so it counts what process-context costs the host.
func (e *Engine) Resumes() uint64 { return e.resumes }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return e.pq.len() }

// schedule allocates a pooled record, stamps it with (t, next seq), and
// enqueues it. Scheduling in the past panics: a discrete-event simulation
// must never travel backwards.
func (e *Engine) schedule(t Time) *event {
	return e.scheduleKeyed(t, e.now, 0, 0)
}

// scheduleKeyed is schedule with the full explicit queue key: the schedule
// stamp plus the network-post ordinal pair (see the key order note in
// event.go). The key fields must be in place before the push.
func (e *Engine) scheduleKeyed(t, schedAt Time, ord, ordSeq uint64) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	e.seq++
	ev.at, ev.schedAt, ev.ord, ev.ordSeq, ev.seq = t, schedAt, ord, ordSeq, e.seq
	e.pq.push(ev, e.now)
	return ev
}

func checkDelay(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
}

// AtEvent schedules the typed event h(recv, arg) at absolute time t. The
// call is allocation-free when recv is a pointer: the handler is shared,
// the receiver is stored as a pointer in an interface word, and the event
// record comes from the engine's free list.
//
//lint:hotpath
func (e *Engine) AtEvent(t Time, h Handler, recv any, arg uint64) {
	ev := e.schedule(t)
	ev.h, ev.recv, ev.arg = h, recv, arg
}

// AtEventPosted schedules the typed event h(recv, arg) at absolute time t
// as a network post from node src with per-node sequence postSeq. Posts
// carry their posting node's identity in the queue key, so two posts that
// tie on (time, schedule stamp) order by (src, postSeq) — a pure function
// of the simulation's content — instead of by engine insertion order. The
// netsim endpoints use this for every message-derived event, which is what
// keeps a partitioned run (machine.Config.Shards > 1) byte-identical to
// the serial engine: a cross-shard post integrated at a window barrier
// lands in exactly the slot this method would have given it locally.
//
//lint:hotpath
func (e *Engine) AtEventPosted(t Time, src int, postSeq uint64, h Handler, recv any, arg uint64) {
	ev := e.scheduleKeyed(t, e.now, uint64(src)+1, postSeq)
	ev.h, ev.recv, ev.arg = h, recv, arg
}

// AtEventStamped schedules the typed event h(recv, arg) at absolute time t
// carrying an explicit schedule stamp instead of the engine clock, plus the
// posting node's (src, postSeq) ordinal pair. It exists for the partitioned
// runtime (internal/sim/partition): when a cross-shard event is integrated
// at a window barrier, the destination engine's clock is the window
// boundary, not the instant the source shard scheduled the event — passing
// the source's clock as schedAt and the source node's post ordinal slots
// the event into the queue exactly where the serial engine's AtEventPosted
// would have placed it. schedAt must not exceed t.
func (e *Engine) AtEventStamped(t, schedAt Time, src int, postSeq uint64, h Handler, recv any, arg uint64) {
	if schedAt > t {
		panic(fmt.Sprintf("sim: event at %v stamped from the future %v", t, schedAt))
	}
	ev := e.scheduleKeyed(t, schedAt, uint64(src)+1, postSeq)
	ev.h, ev.recv, ev.arg = h, recv, arg
}

// AtEventFrom schedules the typed event h(recv, arg) at absolute time t
// as AtEvent would have had it been called at time schedAt: a node-local
// event (no post ordinal) stamped schedAt instead of the engine clock.
// Among the events that tie with it on (t, schedAt) it pops in the order
// of the calls, so it goes before every one scheduled after it, however
// early in the instant schedAt that one was. Code that computes a chain
// of steps ahead of time uses it to schedule one event of the chain with
// the key the step-by-step chain would have given it. schedAt must not
// exceed t.
//
//lint:hotpath
func (e *Engine) AtEventFrom(t, schedAt Time, h Handler, recv any, arg uint64) {
	if schedAt > t {
		panic(fmt.Sprintf("sim: event at %v stamped from the future %v", t, schedAt))
	}
	ev := e.scheduleKeyed(t, schedAt, 0, 0)
	ev.h, ev.recv, ev.arg = h, recv, arg
}

// NextEventAt returns the timestamp of the earliest pending event. ok is
// false when the queue is empty. The partitioned runtime uses this at each
// barrier to size the next conservative window.
func (e *Engine) NextEventAt() (t Time, ok bool) {
	ev := e.pq.peek(e.now)
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// RunWindow executes every pending event with a timestamp strictly before
// end, then advances the clock to end. It is the per-shard step of the
// partitioned runtime: the window end is a time no cross-shard event can
// precede (guaranteed by the network-latency lookahead), so everything
// before it is safe to run without coordination. An empty window just
// advances the clock.
func (e *Engine) RunWindow(end Time) {
	for !e.stopped {
		if ev := e.pq.peek(e.now); ev == nil || ev.at >= end {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < end {
		e.now = end
	}
}

// AfterEvent schedules the typed event h(recv, arg) d picoseconds from now.
//
//lint:hotpath
func (e *Engine) AfterEvent(d Time, h Handler, recv any, arg uint64) {
	checkDelay(d)
	e.AtEvent(e.now+d, h, recv, arg)
}

// AtTimer schedules the typed event h(recv, arg) at absolute time t and
// returns a Timer that can cancel it before it fires.
//
//lint:hotpath
func (e *Engine) AtTimer(t Time, h Handler, recv any, arg uint64) Timer {
	ev := e.schedule(t)
	ev.h, ev.recv, ev.arg = h, recv, arg
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// AfterTimer schedules the typed event h(recv, arg) d picoseconds from now
// and returns a Timer that can cancel it before it fires.
//
//lint:hotpath
func (e *Engine) AfterTimer(d Time, h Handler, recv any, arg uint64) Timer {
	checkDelay(d)
	return e.AtTimer(e.now+d, h, recv, arg)
}

// Step executes the next pending event, advancing time. It returns false if
// the queue is empty or the engine has been stopped. The dispatched handler
// itself is a dynamic call, outside the static noalloc proof; typed-event
// handlers are hot through their own scheduling sites instead.
//
//lint:hotpath
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev := e.pq.pop(e.now)
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.stepped++
	// Capture the callback, then recycle the record before dispatching: the
	// generation bump invalidates any Timer still pointing here, and the
	// record is immediately reusable by whatever the handler schedules.
	h, recv, arg := ev.h, ev.recv, ev.arg
	e.release(ev)
	h(recv, arg)
	return true
}

// Run executes events until the queue is empty or Stop is called. A queue
// that drains with work still outstanding has lost a message, not
// finished; StallReport tells the two apart.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RegisterQuiescence adds a quiescence check: a function that returns a
// non-empty diagnostic when its component still holds unfinished work
// (unreleased buffers, in-flight messages), and "" when quiescent. Checks
// run only through StallReport.
func (e *Engine) RegisterQuiescence(fn func() string) {
	e.quiescence = append(e.quiescence, fn)
}

// StallReport runs every registered quiescence check and concatenates the
// non-empty diagnostics. An empty result means the simulation is quiescent:
// the drained event queue represents genuine completion.
func (e *Engine) StallReport() string {
	var b strings.Builder
	for _, fn := range e.quiescence {
		if r := fn(); r != "" {
			b.WriteString(r)
			if !strings.HasSuffix(r, "\n") {
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	for !e.stopped {
		if ev := e.pq.peek(e.now); ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunWhile executes events until cond reports false, the queue drains, or
// the engine is stopped. cond is evaluated after every event.
func (e *Engine) RunWhile(cond func() bool) {
	for !e.stopped && cond() && e.Step() {
	}
}

// Stop halts the run loop after the current event. Parked processes remain
// parked; call Drain to terminate them.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Drain kills every live process in spawn order, running the deferred
// functions of each started one and releasing its coroutine. A process
// spawned during Drain is killed before it starts. The engine is unusable
// for further simulation afterwards. It is safe to call Drain on an engine
// with no live processes.
func (e *Engine) Drain() {
	e.stopped = true
	for e.procs.oldest != nil {
		e.procs.oldest.kill()
	}
}
