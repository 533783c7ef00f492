package proc

import (
	"fmt"
	"math/rand"
	"testing"

	"nisim/internal/membus"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// listSteps walks a fixed step list; the engines' cursors walk their
// loops' counters instead, but a list is the clearest reference here.
type listSteps struct {
	s []Step
	i int
}

func (l *listSteps) Next(s *Step) bool {
	if l.i == len(l.s) {
		return false
	}
	*s = l.s[l.i]
	l.i++
	return true
}

// issue performs steps one by one in process context, with the primitives
// a transfer loop would call.
func issue(pr *Proc, category int, steps []Step) {
	for _, s := range steps {
		switch {
		case s.Access && s.Kind == membus.BlockRead:
			pr.BlockRead(category, s.Addr, s.Cycles)
		case s.Access && s.Kind == membus.BlockWrite:
			pr.BlockWrite(category, s.Addr, s.Cycles)
		default:
			pr.Work(category, s.Cycles)
			if s.Access && s.Kind == membus.UncachedRead {
				pr.UncachedRead(category, s.Addr, s.Size)
			} else if s.Access {
				pr.UncachedWrite(category, s.Addr, s.Size)
			}
		}
	}
}

// trainOutcome is everything a train must leave exactly as the one-by-one
// steps do.
type trainOutcome struct {
	events, resumes uint64
	wake            sim.Time
	timeIn          [len(stats.Node{}.TimeIn)]sim.Time
	busTxns         int64
	uncached        int64
	blockBuf        int64
	log             []string
}

// runSteps runs steps on a fresh processor, as a train or one by one,
// while a rival process on the same bus issues uncached reads and short
// sleeps that tie with the steps' own events: any step scheduled in a
// different queue slot would reorder the bus trace or the wakeups.
func runSteps(t *testing.T, steps []Step, train bool) trainOutcome {
	t.Helper()
	eng, pr, st := newProc()
	var o trainOutcome
	pr.Bus.Trace = func(format string, args ...any) {
		o.log = append(o.log, fmt.Sprintf("%v ", eng.Now())+fmt.Sprintf(format, args...))
	}
	p := eng.Spawn("p", func(p *sim.Process) {
		pr.Compute(3)
		if train {
			var tr Train
			tr.Run(pr, stats.Transfer, &listSteps{s: steps})
		} else {
			issue(pr, stats.Transfer, steps)
		}
		o.wake = p.Now()
		o.log = append(o.log, fmt.Sprintf("%v p wakes", p.Now()))
		pr.UncachedRead(stats.Buffering, 0x3000, 8)
	})
	pr.Bind(p)
	eng.Spawn("rival", func(q *sim.Process) {
		for i := 0; i < 24; i++ {
			pr.Bus.Access(q, membus.UncachedRead, 0x2000, 8)
			o.log = append(o.log, fmt.Sprintf("%v rival wakes", q.Now()))
			q.Sleep(sim.Time(i%3) * sim.Nanosecond)
		}
	})
	eng.Run()
	if !p.Done() {
		t.Fatal("process stuck")
	}
	o.events, o.resumes = eng.Events(), eng.Resumes()
	o.timeIn = st.TimeIn
	o.busTxns, o.uncached, o.blockBuf = st.BusTransactions, st.UncachedAccesses, st.BlockBufTransfers
	return o
}

func rd(cycles int64) Step {
	return Step{Cycles: cycles, Access: true, Kind: membus.UncachedRead, Addr: 0x100, Size: 8}
}

func wr(cycles int64) Step {
	return Step{Cycles: cycles, Access: true, Kind: membus.UncachedWrite, Addr: 0x100, Size: 8}
}

func blk(k membus.Kind, cycles int64) Step {
	return Step{Cycles: cycles, Access: true, Kind: k, Addr: 0x1000, Size: membus.BlockSize}
}

func work(cycles int64) Step { return Step{Cycles: cycles} }

// checkTrain requires a train of steps to match the one-by-one steps in
// events, wake time, every TimeIn category, bus counters and the
// interleaving with the rival, and to resume the process once instead of
// once per continuation.
func checkTrain(t *testing.T, steps []Step) {
	t.Helper()
	ref := runSteps(t, steps, false)
	got := runSteps(t, steps, true)
	if got.events != ref.events {
		t.Errorf("events = %d, want %d", got.events, ref.events)
	}
	if got.wake != ref.wake {
		t.Errorf("process resumed at %v, want %v", got.wake, ref.wake)
	}
	if got.timeIn != ref.timeIn {
		t.Errorf("TimeIn = %v, want %v", got.timeIn, ref.timeIn)
	}
	if got.busTxns != ref.busTxns || got.uncached != ref.uncached || got.blockBuf != ref.blockBuf {
		t.Errorf("bus counters (txns, uncached, block) = (%d, %d, %d), want (%d, %d, %d)",
			got.busTxns, got.uncached, got.blockBuf, ref.busTxns, ref.uncached, ref.blockBuf)
	}
	if fmt.Sprint(got.log) != fmt.Sprint(ref.log) {
		t.Errorf("interleaving differs:\n got %v\nwant %v", got.log, ref.log)
	}
	saved := uint64(0)
	if n := len(actionsOf(steps)); n > 0 {
		saved = uint64(n - 1)
	}
	if ref.resumes-got.resumes != saved {
		t.Errorf("resumes = %d, want %d (one per train, not one per step)", got.resumes, ref.resumes-saved)
	}
}

// trainCases are hand-picked step lists covering every shape a train can
// take at its ends and between its steps.
var trainCases = map[string][]Step{
	"empty":                {},
	"zero work only":       {work(0), work(0)},
	"zero work between":    {work(0), work(3), work(0), rd(0), work(0)},
	"one work":             {work(5)},
	"one access":           {rd(0)},
	"one work and access":  {rd(2)},
	"ends in work":         {wr(2), work(7)},
	"ends in access":       {work(2), rd(0), wr(1)},
	"ends in zero work":    {wr(2), rd(0), work(0)},
	"back to back work":    {work(150), work(1), work(2)},
	"block write chunks":   {work(8), blk(membus.BlockWrite, 12), work(8), blk(membus.BlockWrite, 12), wr(0)},
	"block read chunks":    {rd(0), work(60), blk(membus.BlockRead, 12), work(8), blk(membus.BlockRead, 12), work(3)},
	"cm5 push 16B":         {rd(150), wr(2), wr(2), rd(0), wr(2), wr(0)},
	"single-cycle receive": {work(1), work(15), work(2), work(1), work(2), work(1), work(1), work(2), work(1)},
}

// randomSteps draws a step list mixing every step shape from seed.
func randomSteps(seed int64) []Step {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]Step, 1+rng.Intn(30))
	for i := range steps {
		c := int64(rng.Intn(4)) * int64(rng.Intn(20))
		switch rng.Intn(5) {
		case 0:
			steps[i] = work(c)
		case 1:
			steps[i] = rd(c)
		case 2:
			steps[i] = wr(c)
		case 3:
			steps[i] = blk(membus.BlockRead, c)
		default:
			steps[i] = blk(membus.BlockWrite, c)
		}
	}
	return steps
}

func TestTrainMatchesSteps(t *testing.T) {
	for name, steps := range trainCases {
		t.Run(name, func(t *testing.T) { checkTrain(t, steps) })
	}
}

// TestTrainMatchesRandomSteps draws step lists mixing every step shape.
func TestTrainMatchesRandomSteps(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		steps := randomSteps(seed)
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { checkTrain(t, steps) })
	}
}

// TestTrainDrainMidTrain kills a process parked mid-train, with a work
// continuation or a bus access pending, and fires the orphaned
// continuation: the process unwinds through its deferred functions and
// the continuation schedules nothing.
func TestTrainDrainMidTrain(t *testing.T) {
	steps := []Step{work(10), rd(2), work(10), wr(2), rd(0), work(10)}
	for _, cut := range []sim.Time{5, 15, 25, 40, 60} {
		t.Run(fmt.Sprint(cut, "ns"), func(t *testing.T) {
			eng, pr, _ := newProc()
			unwound, returned := false, false
			var tr Train
			p := eng.Spawn("p", func(*sim.Process) {
				defer func() { unwound = true }()
				tr.Run(pr, stats.Transfer, &listSteps{s: steps})
				returned = true
			})
			pr.Bind(p)
			eng.RunUntil(cut * sim.Nanosecond)
			if p.Done() || eng.Pending() == 0 {
				t.Fatalf("train not in flight at %vns", cut)
			}
			eng.Drain()
			if !p.Done() || !unwound || returned {
				t.Fatalf("drain: done=%v unwound=%v returned=%v", p.Done(), unwound, returned)
			}
			n := eng.Pending()
			trainStep(&tr, 0)
			if eng.Pending() != n {
				t.Fatalf("continuation of a dead process scheduled %d events", eng.Pending()-n)
			}
		})
	}
}
