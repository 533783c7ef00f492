package proc

import (
	"fmt"
	"strings"
	"testing"

	"nisim/internal/membus"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// closedOutcome is everything a closed train must leave exactly as the
// stepwise train does on a processor-only bus.
type closedOutcome struct {
	wake     sim.Time
	stamp    sim.Time // the queue stamp of the train's last event
	from     sim.Time // for a final work step after another step: the stamp of the event starting it
	tail     bool     // from is set
	timeIn   [len(stats.Node{}.TimeIn)]sim.Time
	busTxns  int64
	uncached int64
	blockBuf int64
	after    sim.Time // completion of one access issued at the wake
	order    []string // the wake among probes keyed like its last event
	events   uint64
}

// action is one work step (cycles > 0) or one access (cycles 0) of a
// train.
type action struct{ cycles int64 }

// actionsOf lists the actions steps perform, in order: the continuations
// a stepwise train schedules, one per nonzero work and one per access.
func actionsOf(steps []Step) []action {
	var as []action
	for _, s := range steps {
		if s.Cycles != 0 {
			as = append(as, action{s.Cycles})
		}
		if s.Access {
			as = append(as, action{})
		}
	}
	return as
}

// runOnProcessorBus runs steps as a train on a processor-only bus, traced
// (stepwise) or not (closed), after three cycles of compute; then one
// uncached read whose completion shows the bus's and the device's
// busy-until times. probe, when set, is the (wake, stamp) key of the
// stepwise train's last event, and three probe events with that key
// place it in the queue:
//   - an early probe, scheduled before the train starts;
//   - a mid probe, scheduled at the stamp's instant before any train
//     event there, as a message ejection that ends then is;
//   - a late probe, scheduled at the wake time, after the train has
//     scheduled its last event on either path.
//
// The early and late probes' AfterEvent(0) follow-ups track the resume an
// access completion schedules. The mid probe schedules nothing, as nothing
// an ejection runs on a fifo NI schedules an event for its instant. When
// the train ends in work after another step, two more mid probes are
// scheduled at that work's start from events stamped just before and just
// after the stepwise event that starts it, so they pop on either side of
// it. order records the probes and the wake in the order they run.
func runOnProcessorBus(t *testing.T, steps []Step, traced bool, probe *closedOutcome) closedOutcome {
	t.Helper()
	eng, pr, st := newProc()
	pr.Bus.SetProcessorOnly()
	var o closedOutcome
	woke := false
	if traced {
		pr.Bus.Trace = func(string, ...any) {
			if !woke {
				o.stamp = eng.Now() // the latest address-phase end
			}
		}
	}
	if pr.Bus.ClosedTrains() == traced {
		t.Fatalf("ClosedTrains() = %v on a processor-only bus with traced = %v", !traced, traced)
	}
	mark := func(name string) {
		o.order = append(o.order, fmt.Sprintf("%v %s", eng.Now(), name))
	}
	follow := func(name string) sim.Handler {
		return func(any, uint64) {
			mark(name)
			eng.AfterEvent(0, func(any, uint64) { mark(name + " follow-up") }, nil, 0)
		}
	}
	midProbe := func(stamp sim.Time, name string) {
		eng.AtEventFrom(probe.stamp, stamp, func(any, uint64) {
			eng.AfterEvent(probe.wake-probe.stamp, func(any, uint64) { mark(name) }, nil, 0)
		}, nil, 0)
	}
	if probe != nil {
		midProbe(0, "mid probe")
		if start := 3 * sim.Nanosecond; probe.tail && probe.from-sim.Picosecond > start {
			midProbe(probe.from-sim.Picosecond, "mid probe before the last step")
		}
		if probe.tail && probe.from < probe.stamp {
			midProbe(probe.from+sim.Picosecond, "mid probe after the last step")
		}
		eng.AtEvent(probe.wake, func(any, uint64) {
			eng.AtEventFrom(probe.wake, probe.stamp, follow("late probe"), nil, 0)
		}, nil, 0)
	}
	p := eng.Spawn("p", func(p *sim.Process) {
		pr.Compute(3)
		if probe != nil {
			eng.AtEventFrom(probe.wake, probe.stamp, follow("early probe"), nil, 0)
		}
		var tr Train
		tr.Run(pr, stats.Transfer, &listSteps{s: steps})
		o.wake, woke = p.Now(), true
		mark("wake")
		issue(pr, stats.Buffering, []Step{{Access: true, Kind: membus.UncachedRead, Addr: 0x3000, Size: 8}})
		o.after = p.Now()
	})
	pr.Bind(p)
	eng.Run()
	if !p.Done() {
		t.Fatal("process stuck")
	}
	if as := actionsOf(steps); len(as) > 0 && as[len(as)-1].cycles != 0 {
		o.stamp = o.wake - pr.CPU.Cycles(as[len(as)-1].cycles)
		if len(as) > 1 {
			o.tail, o.from = true, o.stamp-pr.CPU.Cycles(as[len(as)-2].cycles)
		}
	}
	o.timeIn = st.TimeIn
	o.busTxns, o.uncached, o.blockBuf = st.BusTransactions, st.UncachedAccesses, st.BlockBufTransfers
	o.events = eng.Events()
	return o
}

// checkClosed requires a closed train of steps to match the stepwise one
// on a processor-only bus: the wake time and its queue position, the
// blocked time by category, the bus counters, and the bus and device state
// the train leaves behind.
func checkClosed(t *testing.T, steps []Step) {
	t.Helper()
	key := runOnProcessorBus(t, steps, true, nil)
	var probe *closedOutcome
	if len(actionsOf(steps)) > 0 {
		probe = &key
	}
	ref := runOnProcessorBus(t, steps, true, probe)
	got := runOnProcessorBus(t, steps, false, probe)
	if got.wake != ref.wake || ref.wake != key.wake {
		t.Errorf("process resumed at %v, want %v", got.wake, ref.wake)
	}
	if strings.Join(got.order, ", ") != strings.Join(ref.order, ", ") {
		t.Errorf("wake order differs:\n got %v\nwant %v", got.order, ref.order)
	}
	if got.timeIn != ref.timeIn {
		t.Errorf("TimeIn = %v, want %v", got.timeIn, ref.timeIn)
	}
	if got.busTxns != ref.busTxns || got.uncached != ref.uncached || got.blockBuf != ref.blockBuf {
		t.Errorf("bus counters (txns, uncached, block) = (%d, %d, %d), want (%d, %d, %d)",
			got.busTxns, got.uncached, got.blockBuf, ref.busTxns, ref.uncached, ref.blockBuf)
	}
	if got.after != ref.after {
		t.Errorf("follow-up access completed at %v, want %v", got.after, ref.after)
	}
	if n := len(actionsOf(steps)); n > 1 && got.events >= ref.events {
		t.Errorf("closed train ran %d events, stepwise %d: it scheduled its steps", got.events, ref.events)
	}
}

func TestClosedTrainMatchesStepwise(t *testing.T) {
	for name, steps := range trainCases {
		t.Run(name, func(t *testing.T) { checkClosed(t, steps) })
	}
	for seed := int64(1); seed <= 16; seed++ {
		steps := randomSteps(seed)
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { checkClosed(t, steps) })
	}
}

// TestClosedTrainAllocFree runs a CM-5-style push as a closed train, round
// after round, and requires no allocation and three events per round: the
// resume that starts the round, the train's completion, and the resume the
// completion schedules.
func TestClosedTrainAllocFree(t *testing.T) {
	eng, pr, _ := newProc()
	pr.Bus.SetProcessorOnly()
	steps := &listSteps{s: trainCases["cm5 push 16B"]}
	var tr Train
	p := eng.Spawn("p", func(p *sim.Process) {
		for {
			steps.i = 0
			tr.Run(pr, stats.Transfer, steps)
			p.Park()
		}
	})
	pr.Bind(p)
	round := func() {
		p.Unpark()
		eng.Run()
	}
	for i := 0; i < 10; i++ {
		round()
	}
	before := eng.Events()
	round()
	if n := eng.Events() - before; n != 3 {
		t.Errorf("closed train round ran %d events, want 3 (resume, completion, resume)", n)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("closed train allocates %.1f per round, want 0", allocs)
	}
	eng.Drain()
}

// TestClosedTrainRivalIssuePanics issues a rival transaction on the bus
// while a closed train holds it: the train's accesses are already timed,
// so a second master would silently retime them, and the bus refuses.
func TestClosedTrainRivalIssuePanics(t *testing.T) {
	eng, pr, _ := newProc()
	pr.Bus.SetProcessorOnly()
	p := eng.Spawn("p", func(*sim.Process) {
		var tr Train
		tr.Run(pr, stats.Transfer, &listSteps{s: trainCases["cm5 push 16B"]})
	})
	pr.Bind(p)
	eng.AtEvent(200*sim.Nanosecond, func(any, uint64) {
		pr.Bus.Issue(nil, membus.UncachedRead, 0x2000, 8, nil, nil)
	}, nil, 0)
	defer eng.Drain()
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "closed access train holds the bus") {
			t.Fatalf("rival issue during a closed train: recovered %v, want the bus's panic", r)
		}
	}()
	eng.Run()
}

// TestClosedTrainDrainMidTrain kills a process parked in a closed train
// before its completion fires: the process unwinds through its deferred
// functions, as from a stepwise train, and never returns from Run.
func TestClosedTrainDrainMidTrain(t *testing.T) {
	steps := []Step{work(10), rd(2), work(10), wr(2), rd(0), work(10)}
	for _, cut := range []sim.Time{5, 40, 200} {
		t.Run(fmt.Sprint(cut*sim.Nanosecond), func(t *testing.T) {
			eng, pr, _ := newProc()
			pr.Bus.SetProcessorOnly()
			unwound, returned := false, false
			p := eng.Spawn("p", func(*sim.Process) {
				defer func() { unwound = true }()
				var tr Train
				tr.Run(pr, stats.Transfer, &listSteps{s: steps})
				returned = true
			})
			pr.Bind(p)
			eng.RunUntil(cut * sim.Nanosecond)
			if p.Done() || eng.Pending() != 1 {
				t.Fatalf("closed train not in flight at %v: %d events pending", cut*sim.Nanosecond, eng.Pending())
			}
			eng.Drain()
			if !p.Done() || !unwound || returned {
				t.Fatalf("drain: done=%v unwound=%v returned=%v", p.Done(), unwound, returned)
			}
		})
	}
}

// TestTrainFormFromFirstStep checks that a train picks its form from its
// first step on a processor-only bus: a train that opens with a cached
// step runs stepwise, with the events and charges of the same train on a
// traced bus, and a closed train that meets a cached step later panics.
func TestTrainFormFromFirstStep(t *testing.T) {
	cached := []Step{load(0, 0x4000, 8), store(2, 0x4040, 8)}
	runOn := func(traced bool, steps []Step) (events uint64, timeIn [len(stats.Node{}.TimeIn)]sim.Time) {
		eng, pr, st := newProc()
		pr.Bus.SetProcessorOnly()
		if traced {
			pr.Bus.Trace = func(string, ...any) {}
		}
		run(t, eng, pr, func() { runTrain(pr, stats.Transfer, steps...) })
		return eng.Events(), st.TimeIn
	}
	gotEvents, gotTime := runOn(false, cached)
	refEvents, refTime := runOn(true, cached)
	if gotEvents != refEvents || gotTime != refTime {
		t.Errorf("cached train on a processor-only bus: %d events, TimeIn %v; stepwise %d, %v",
			gotEvents, gotTime, refEvents, refTime)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "closed access train met a cached step") {
			t.Fatalf("closed train reaching a cached step: recovered %v, want its panic", r)
		}
	}()
	eng, pr, _ := newProc()
	pr.Bus.SetProcessorOnly()
	defer eng.Drain()
	run(t, eng, pr, func() { runTrain(pr, stats.Transfer, rd(0), load(0, 0x4000, 8)) })
}
