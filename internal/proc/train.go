package proc

import (
	"nisim/internal/membus"
	"nisim/internal/sim"
)

// Step is one step of an access train: Cycles processor cycles of work,
// then, when Access is set, one bus access of Kind at Addr moving Size
// bytes. The zero Step does nothing.
type Step struct {
	Cycles int64
	Access bool
	Kind   membus.Kind
	Addr   membus.Addr
	Size   int
}

// Steps is the cursor an access train walks: Next fills s with the next
// step and reports whether there was one. The train reads one step ahead,
// so Next must depend only on the cursor's own counters, never on
// simulation state that the earlier steps' time could change.
type Steps interface {
	Next(s *Step) bool
}

// Train is the run state of one access train at a time: the cursor and
// one step of lookahead. Whoever owns the cursor owns the Train, so a
// processor that never runs a train carries none.
type Train struct {
	pr    *Proc
	steps Steps
	cur   Step // the step in progress; Cycles and Access clear as they are spent
	next  Step // one step of lookahead, valid when more is set
	more  bool
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
// the same Work and UncachedRead/UncachedWrite/block accesses, in the same
// order and at the same simulated times, as issuing them one by one, but
// with the process parked once for the whole sequence instead of
// suspending once per step.
//
// The steps run in event context. Each schedules its continuation at the
// call point the process would have used: a Work of d at AfterEvent(d),
// the slot Sleep takes, and an access from its completion at
// AfterEvent(0), the slot Unpark takes. The last step wakes the process
// itself (UnparkAfter, or an access hook of sim.UnparkHandler), so every
// event keeps its queue key and the event count is unchanged. The blocked time is charged
// once, and the categories' sums are those of the per-step sleeps.
//
//lint:hotpath
func (t *Train) Run(pr *Proc, category int, steps Steps) {
	t.pr, t.steps = pr, steps
	if t.fetch(&t.cur) {
		t.more = t.fetch(&t.next)
		t.advance()
		pr.P.ParkAs(category)
	}
	t.steps = nil
}

// trainStep is the continuation event of an access train. A process that
// Drain killed mid-train is done, and its train is dropped.
//
//lint:hotpath
func trainStep(recv any, _ uint64) {
	t := recv.(*Train)
	if t.pr.P.Done() {
		return
	}
	t.advance()
}

// trainAccessDone is the completion hook of a mid-train access. It
// schedules the train's continuation at AfterEvent(0), the slot the
// process's Unpark would have taken, rather than advancing inline.
//
//lint:hotpath
func trainAccessDone(recv any, _ uint64) {
	t := recv.(*Train)
	t.pr.Eng.AfterEvent(0, trainStep, t, 0)
}

// advance performs the train's next scheduling step: the current step's
// work, then its access, then the steps after it.
func (t *Train) advance() {
	pr := t.pr
	for {
		s := &t.cur
		if s.Cycles != 0 {
			d := pr.CPU.Cycles(s.Cycles)
			s.Cycles = 0
			if s.Access || t.more {
				pr.Eng.AfterEvent(d, trainStep, t, 0)
			} else {
				pr.P.UnparkAfter(d)
			}
			return
		}
		if s.Access {
			s.Access = false
			if t.more {
				pr.Bus.Issue(nil, s.Kind, s.Addr, s.Size, trainAccessDone, t)
			} else {
				pr.Bus.Issue(nil, s.Kind, s.Addr, s.Size, sim.UnparkHandler, pr.P)
			}
			return
		}
		if !t.more {
			panic("proc: access train advanced past its last step")
		}
		t.cur = t.next
		t.more = t.fetch(&t.next)
	}
}
