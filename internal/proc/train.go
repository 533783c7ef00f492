package proc

import (
	"nisim/internal/cache"
	"nisim/internal/membus"
	"nisim/internal/sim"
)

// Step is one step of an access train: Cycles processor cycles of work,
// then, when Access is set, one access: a bus access of Kind at Addr
// moving Size bytes or, when Cached is set as well, a processor load of
// the Size bytes at Addr through the processor cache, or a store when
// Write is set. The zero Step does nothing.
type Step struct {
	Cycles int64
	Kind   membus.Kind
	Addr   membus.Addr
	Size   int
	Access bool
	Cached bool
	Write  bool
}

// CachedStep is the step of a processor load of n bytes at a through the
// processor cache, or a store when write is set.
func CachedStep(write bool, a membus.Addr, n int) Step {
	return Step{Access: true, Cached: true, Write: write, Addr: a, Size: n}
}

// OneStep is the cursor of a train of one step.
type OneStep struct {
	s     Step
	taken bool
}

// Set makes the cursor yield s once.
func (c *OneStep) Set(s Step) *OneStep {
	c.s, c.taken = s, false
	return c
}

// Next implements Steps.
//
//lint:hotpath
func (c *OneStep) Next(s *Step) bool {
	if c.taken {
		return false
	}
	*s, c.taken = c.s, true
	return true
}

// Steps is the cursor an access train walks: Next fills s with the next
// step and reports whether there was one. A stepwise train reads each
// step when the one before it is done, at the time a process issuing them
// one by one would, so its cursor may read the simulation state the
// process would see there. A closed train reads them all when it starts,
// so a cursor run closed must depend only on its own counters.
type Steps interface {
	Next(s *Step) bool
}

// Train is the run state of one access train at a time: the cursor, the
// step in progress, while that step's cached access is in flight the
// processor cache's op, and the train's end. Whoever owns the cursor owns
// the Train, so a processor that never runs a train carries none.
type Train struct {
	pr    *Proc
	steps Steps
	cur   Step      // the step in progress; Cycles and Access clear as they are spent
	op    *cache.Op // cur's cached access, once started
	tail  sim.Time  // a closed train's final work, for trainTail

	// The train's end (see end): its time since start is charged to
	// category, then done(doneRecv, 0) runs, or the process resumes when
	// done is nil.
	category int
	start    sim.Time
	done     sim.Handler
	doneRecv any
}

// fetch fills s with the cursor's next non-empty step.
func (t *Train) fetch(s *Step) bool {
	for t.steps.Next(s) {
		if s.Cycles != 0 || s.Access {
			return true
		}
	}
	return false
}

// Run runs steps on pr's process as one access train charged to category:
// the same work, uncached, block-buffer and cached accesses, in the same
// order and at the same simulated times, as issuing them one by one, but
// with the process parked once for the whole sequence instead of
// suspending once per step. The blocked time is charged once, and the
// categories' sums are those of the per-step sleeps.
//
// The train alone picks its form, from its first step (see begin). On a
// bus that only the processor drives and no tracer watches
// (membus.Bus.ClosedTrains), a train whose first step is not cached is
// closed: it is computed whole when it starts and schedules only the event
// its wakeup comes from (see runClosed). Otherwise it runs stepwise, in
// event context, one event per step (see advance): a cached access's
// outcome (a hit, an upgrade and its re-check, a dirty victim's writeback,
// a fill) depends on the cache's state at the access's own time, which the
// snoops of other masters' transactions can change while the train runs,
// so the processor cache decides it when the step is reached, never ahead.
//
//lint:hotpath
func (t *Train) Run(pr *Proc, category int, steps Steps) {
	if t.begin(pr, category, steps, nil, nil) {
		pr.P.ParkUncharged()
	}
}

// Start is Run for work the processor does while its process stays
// parked (sim.Process.ParkUncharged), driven from event context: it
// returns at once, and when the train is done it charges the train's
// time to category and runs done(recv, 0) in the slot where Run would
// have resumed the process, with the event keys Run's train has. A train
// that ends where it starts (no step, or cached hits of zero latency)
// runs done before Start returns, so a caller in process context must
// not let done resume the process.
//
//lint:hotpath
func (t *Train) Start(pr *Proc, category int, steps Steps, done sim.Handler, recv any) {
	if !t.begin(pr, category, steps, done, recv) {
		done(recv, 0)
	}
}

// begin fetches the train's first step and starts the train with its
// end: closed when the bus allows the closed form and that step is not
// cached, stepwise otherwise. It reports whether the train is in flight;
// false means it ended where it started, with nothing to charge. Only the
// UDMA staging copy and shmem's shadow accesses bring cached steps to a
// processor-only bus (Spec.Validate keeps the coherent engines off it),
// and each is a train of that one step, so a closed train never meets a
// cached step (runClosed panics if it does).
//
//lint:hotpath
func (t *Train) begin(pr *Proc, category int, steps Steps, done sim.Handler, recv any) bool {
	t.pr, t.steps, t.op = pr, steps, nil
	t.category, t.start, t.done, t.doneRecv = category, pr.Eng.Now(), done, recv
	ran := t.fetch(&t.cur)
	switch {
	case !ran:
	case pr.Bus.ClosedTrains() && !t.cur.Cached:
		t.runClosed()
	default:
		ran = t.advance()
	}
	if !ran {
		t.steps, t.done, t.doneRecv = nil, nil, nil
	}
	return ran
}

// end finishes the train in the slot where its process would resume:
// it charges the train's time, then runs the done hook or, without one,
// resumes the process in place. The Train is free again before the hook
// runs, so the hook may start the next train on it.
//
//lint:hotpath
func (t *Train) end() {
	p := t.pr.P
	done, recv := t.done, t.doneRecv
	t.steps, t.done, t.doneRecv = nil, nil, nil
	p.Charge(t.category, t.start)
	if done == nil {
		p.Resume()
		return
	}
	done(recv, 0)
}

// runClosed walks the whole train, from its first step (t.cur), in virtual
// time from now and schedules the train's end. Each work step adds its
// cycles; each access applies, through
// membus.Bus.ClosedAccess, what the stepwise access applies, at the time
// the stepwise train would issue it. Nothing else reads or writes that
// state before the train completes: the bus occupancy, the device's
// access slots and the node's bus counters belong to the parked processor
// alone.
//
// So only the train's end can tell the two paths apart, and it must
// pop where the stepwise one does, also among the events that tie with
// it on time and schedule stamp. Those pop in the order they were
// scheduled, and the stepwise train schedules its end in the middle of
// an instant, so an event scheduled earlier in that instant pops first:
// the accept of a header-only message whose ejection ends just as a final
// 8-cycle block-buffer drain does, say. So the closed train schedules
// ahead of time, with its stepwise key, the event the stepwise train
// schedules the end from:
//   - after a final access, its completion hook, trainDone, at the
//     completion time stamped with the address-phase end, where the bus
//     schedules it; the hook's AfterEvent(0) end follows as before;
//   - after a final work step that follows another step, trainTail, with
//     the key of the stepwise continuation into that work, which schedules
//     the end at AfterEvent of that work from its start;
//   - when the work is the train's only step, nothing: the context that
//     starts the train is that event, and it schedules the end as the
//     stepwise train does.
//
// That event takes the first place among its own ties instead. DESIGN.md
// §4.1 says why no event that ties with it on a processor-only bus's node
// can tell.
//
//lint:hotpath
func (t *Train) runClosed() {
	pr := t.pr
	at := pr.Eng.Now()
	// stamp is the latest step's start for work and its address-phase end
	// for an access; from is the schedule stamp of the stepwise event that
	// starts the latest work step, unless lone: the train's starter starts it.
	var stamp, from sim.Time
	access, lone := false, false
	for first := true; first || t.fetch(&t.cur); first = false {
		s := &t.cur
		if s.Cached {
			panic("proc: a closed access train met a cached step")
		}
		if s.Cycles != 0 {
			lone = first
			if access {
				from = at // AfterEvent(0) from the access's completion
			} else {
				from = stamp // AfterEvent(d) from the work before
			}
			stamp, access = at, false
			at += pr.CPU.Cycles(s.Cycles)
		}
		if s.Access {
			stamp, at = pr.Bus.ClosedAccess(s.Kind, s.Addr, s.Size, at)
			access = true
		}
	}
	switch {
	case access:
		pr.Eng.AtEventFrom(at, stamp, trainDone, t, 0)
	case lone:
		pr.Eng.AfterEvent(at-stamp, trainEnd, t, 0)
	default:
		t.tail = at - stamp
		pr.Eng.AtEventFrom(stamp, from, trainTail, t, 0)
	}
}

// trainDone is the completion hook of a closed train's final access: the
// train ends in the slot Unpark takes from it.
//
//lint:hotpath
func trainDone(recv any, _ uint64) {
	t := recv.(*Train)
	if t.pr.P.Done() {
		return
	}
	t.pr.Eng.AfterEvent(0, trainEnd, t, 0)
}

// trainTail is the last continuation of a closed train that ends in
// work: it schedules the end when that work ends, as the stepwise
// continuation into it does.
//
//lint:hotpath
func trainTail(recv any, _ uint64) {
	t := recv.(*Train)
	if t.pr.P.Done() {
		return
	}
	t.pr.Eng.AfterEvent(t.tail, trainEnd, t, 0)
}

// trainEnd ends a closed train.
//
//lint:hotpath
func trainEnd(recv any, _ uint64) {
	t := recv.(*Train)
	if t.pr.P.Done() {
		return
	}
	t.end()
}

// trainStep is the continuation event of a stepwise access train: it
// runs in the slot the process would resume in, and ends the train there
// once it is done. A process that Drain killed mid-train is done, and its
// train is dropped.
//
//lint:hotpath
func trainStep(recv any, _ uint64) {
	t := recv.(*Train)
	if t.pr.P.Done() {
		return
	}
	if !t.advance() {
		t.end()
	}
}

// trainAccessDone is the completion hook of a train's access, a cached
// access's transactions included. It schedules the train's continuation
// at AfterEvent(0), the slot the process's Unpark would have taken,
// rather than advancing inline.
//
//lint:hotpath
func trainAccessDone(recv any, _ uint64) {
	t := recv.(*Train)
	t.pr.Eng.AfterEvent(0, trainStep, t, 0)
}

// advance performs the stepwise train's next scheduling step, at the time
// the process would: the current step's work, then its access, then the
// next step, which it reads from the cursor only now. Each continuation
// is scheduled at the call point the process would have used: a Work of d
// at AfterEvent(d), the slot Sleep takes, and an access from its
// completion at AfterEvent(0), the slot Unpark takes; a cached access
// waits as the processor cache's op says. So every event keeps its queue
// key and the event count is that of the one-by-one steps. advance
// reports whether it scheduled a continuation; false means the train is
// done, in the slot where the process resumes.
//
//lint:hotpath
func (t *Train) advance() bool {
	pr := t.pr
	for {
		s := &t.cur
		if s.Cycles != 0 {
			d := pr.CPU.Cycles(s.Cycles)
			s.Cycles = 0
			pr.Eng.AfterEvent(d, trainStep, t, 0)
			return true
		}
		if s.Access && s.Cached {
			if t.op == nil {
				t.op = pr.Cache.Start(s.Addr, s.Size, s.Write, trainAccessDone, t)
			}
			d, busy := t.op.Step()
			if busy {
				return true
			}
			if d != 0 {
				pr.Eng.AfterEvent(d, trainStep, t, 0)
				return true
			}
			t.op = nil
		} else if s.Access {
			s.Access = false
			pr.Bus.Issue(nil, s.Kind, s.Addr, s.Size, trainAccessDone, t)
			return true
		}
		if !t.fetch(&t.cur) {
			return false
		}
	}
}
