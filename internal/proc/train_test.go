package proc

import (
	"fmt"
	"math/rand"
	"testing"

	"nisim/internal/cache"
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

// issue performs steps one by one in process context, as a transfer loop
// issuing them without trains would: each step's work as a sleep, then its
// access through Bus.Access or, for a cached step, drive. It is the
// reference the trains are checked against.
func issue(pr *Proc, category int, steps []Step) {
	p := pr.P
	prev := p.Category
	p.Category = category
	for _, s := range steps {
		p.Sleep(pr.CPU.Cycles(s.Cycles))
		switch {
		case s.Access && s.Cached:
			drive(p, pr.Cache, s.Addr, s.Size, s.Write)
		case s.Access:
			pr.Bus.Access(p, s.Kind, s.Addr, s.Size)
		}
	}
	p.Category = prev
}

// drive is the reference per-step driver of a cached access: p loads the
// n bytes at a through c, or stores them when write, parking on each bus
// transaction and sleeping through each hit.
func drive(p *sim.Process, c *cache.Cache, a membus.Addr, n int, write bool) {
	op := c.Start(a, n, write, sim.UnparkHandler, p)
	for {
		d, busy := op.Step()
		switch {
		case busy:
			p.Park()
		case d > 0:
			p.Sleep(d)
		default:
			return
		}
	}
}

// trainOutcome is everything a train must leave exactly as the one-by-one
// steps do.
type trainOutcome struct {
	events, resumes uint64
	waits           int // the processor's blocked stretches during the steps
	wake            sim.Time
	timeIn          [len(stats.Node{}.TimeIn)]sim.Time
	busTxns         int64
	uncached        int64
	blockBuf        int64
	// The processor cache's counters: a failed upgrade re-check counts a
	// hit and a miss for one block.
	hits, misses, writebacks int64
	log                      []string
}

// cachedBlocks are the blocks the cached steps and the rival cache share:
// two neighbours, and a third that maps onto the first one's line, so a
// dirty first block is written back when the third is filled.
var cachedBlocks = [...]membus.Addr{0x4000, 0x4040, 0x4000 + 1<<20}

// runSteps runs steps on a fresh processor, as a train or one by one,
// while rivals on the same bus issue transactions that tie with the steps'
// own events: any step scheduled in a different queue slot would reorder
// the bus trace or the wakeups. One rival process issues uncached reads
// and short sleeps. The other loads and stores cachedBlocks through a
// second cache, so the processor cache's lines are shared, invalidated and
// supplied cache-to-cache while the steps run, and an upgrade can lose its
// line to the rival before its re-check.
func runSteps(t *testing.T, steps []Step, train bool) trainOutcome {
	t.Helper()
	eng, pr, st := newProc()
	var o trainOutcome
	pr.Bus.Trace = func(format string, args ...any) {
		o.log = append(o.log, fmt.Sprintf("%v ", eng.Now())+fmt.Sprintf(format, args...))
	}
	stepping := false
	p := eng.Spawn("p", func(p *sim.Process) {
		pr.Compute(3)
		stepping = true
		if train {
			var tr Train
			tr.Run(pr, stats.Transfer, &listSteps{s: steps})
		} else {
			issue(pr, stats.Transfer, steps)
		}
		stepping = false
		o.wake = p.Now()
		o.log = append(o.log, fmt.Sprintf("%v p wakes", p.Now()))
		issue(pr, stats.Buffering, []Step{{Access: true, Kind: membus.UncachedRead, Addr: 0x3000, Size: 8}})
	})
	pr.Bind(p)
	p.OnBlocked = func(category int, d sim.Time) {
		if stepping {
			o.waits++
		}
		st.Account(category, d)
	}
	eng.Spawn("rival", func(q *sim.Process) {
		for i := 0; i < 24; i++ {
			pr.Bus.Access(q, membus.UncachedRead, 0x2000, 8)
			o.log = append(o.log, fmt.Sprintf("%v rival wakes", q.Now()))
			q.Sleep(sim.Time(i%3) * sim.Nanosecond)
		}
	})
	rc := cache.New("rival", eng, pr.Bus, cache.DefaultConfig(), stats.NewNode())
	eng.Spawn("rival cache", func(q *sim.Process) {
		for i := 0; i < 40; i++ {
			a := cachedBlocks[i%len(cachedBlocks)] + membus.Addr(8*(i%5))
			drive(q, rc, a, 8, i%4 == 3)
			o.log = append(o.log, fmt.Sprintf("%v rival cache wakes", q.Now()))
			q.Sleep(sim.Time(i%4) * 5 * sim.Nanosecond)
		}
	})
	eng.Run()
	if !p.Done() {
		t.Fatal("process stuck")
	}
	o.events, o.resumes = eng.Events(), eng.Resumes()
	o.timeIn = st.TimeIn
	o.busTxns, o.uncached, o.blockBuf = st.BusTransactions, st.UncachedAccesses, st.BlockBufTransfers
	o.hits, o.misses, o.writebacks = pr.Cache.Hits, pr.Cache.Misses, pr.Cache.Writebacks
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

// load and store are cached steps of n bytes at a after cycles of work.
func load(cycles int64, a membus.Addr, n int) Step {
	s := CachedStep(false, a, n)
	s.Cycles = cycles
	return s
}

func store(cycles int64, a membus.Addr, n int) Step {
	s := CachedStep(true, a, n)
	s.Cycles = cycles
	return s
}

// pieces counts the blocks the cached steps touch: each is one hit or one
// miss of the processor cache, and a failed upgrade re-check is both.
func pieces(steps []Step) int64 {
	n := int64(0)
	for _, s := range steps {
		if s.Access && s.Cached {
			n += int64((membus.BlockOf(s.Addr+membus.Addr(s.Size)-1)-membus.BlockOf(s.Addr))/membus.BlockSize + 1)
		}
	}
	return n
}

// checkTrain requires a train of steps to match the one-by-one steps in
// events, wake time, every TimeIn category, bus and cache counters and
// the interleaving with the rivals, and to resume the process once
// instead of once per wait. It returns the train's outcome.
func checkTrain(t *testing.T, steps []Step) trainOutcome {
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
	if got.hits != ref.hits || got.misses != ref.misses || got.writebacks != ref.writebacks {
		t.Errorf("cache counters (hits, misses, writebacks) = (%d, %d, %d), want (%d, %d, %d)",
			got.hits, got.misses, got.writebacks, ref.hits, ref.misses, ref.writebacks)
	}
	if fmt.Sprint(got.log) != fmt.Sprint(ref.log) {
		t.Errorf("interleaving differs:\n got %v\nwant %v", got.log, ref.log)
	}
	if ref.waits > 0 && got.waits != 1 {
		t.Errorf("the train blocked the process %d times, want once", got.waits)
	}
	if ref.resumes-got.resumes != uint64(ref.waits-got.waits) {
		t.Errorf("resumes = %d, want %d (one per train, not one per wait)", got.resumes, ref.resumes-uint64(ref.waits-got.waits))
	}
	return got
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

// cachedCases are hand-picked step lists with cached steps: hits, fills,
// ranges spanning blocks, and the dirty eviction of a conflicting block,
// among work and uncached accesses, racing the rival cache.
var cachedCases = map[string][]Step{
	"one load":              {load(0, 0x4000, 8)},
	"load then hit":         {load(0, 0x4000, 8), load(1, 0x4008, 8)},
	"store ends":            {rd(2), store(0, 0x4040, 8)},
	"range spans blocks":    {store(3, 0x4020, 100), load(0, 0x4020, 100), work(4)},
	"dirty eviction":        {store(0, 0x4000, 64), load(2, cachedBlocks[2], 8), wr(1)},
	"compose and doorbell":  {store(0, 0x4000, 64), store(0, 0x4040, 64), store(0, 0x4000+1<<20, 8)},
	"consume":               {load(0, 0x4000, 8), load(0, 0x4000, 64), load(0, 0x4040, 40), store(13, cachedBlocks[2], 8)},
	"upgrade after sharing": {load(0, 0x4040, 8), work(30), store(0, 0x4040, 8), store(40, 0x4040, 8), load(0, 0x4000, 8)},
}

// randomCachedSteps draws a step list mixing cached loads and stores of
// cachedBlocks, some spanning two blocks, with the uncached step shapes.
func randomCachedSteps(seed int64) []Step {
	rng := rand.New(rand.NewSource(seed))
	steps := randomSteps(seed)
	for i := range steps {
		c := int64(rng.Intn(4)) * int64(rng.Intn(20))
		a := cachedBlocks[rng.Intn(len(cachedBlocks))] + membus.Addr(8*rng.Intn(8))
		n := []int{8, 8, 64, 100}[rng.Intn(4)]
		switch rng.Intn(4) {
		case 0:
			steps[i] = load(c, a, n)
		case 1:
			steps[i] = store(c, a, n)
		}
	}
	return steps
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
	for name, steps := range cachedCases {
		t.Run("cached "+name, func(t *testing.T) { checkTrain(t, steps) })
	}
}

// TestTrainMatchesRandomSteps draws step lists mixing every step shape,
// cached steps included. Over the cached lists the rival cache must make
// at least one upgrade fail its re-check, and a dirty block must be
// evicted, so the test covers both.
func TestTrainMatchesRandomSteps(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		steps := randomSteps(seed)
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { checkTrain(t, steps) })
	}
	failed, evicted := int64(0), int64(0)
	for seed := int64(1); seed <= 16; seed++ {
		steps := randomCachedSteps(seed)
		t.Run(fmt.Sprint("cached seed=", seed), func(t *testing.T) {
			got := checkTrain(t, steps)
			failed += got.hits + got.misses - pieces(steps)
			evicted += got.writebacks
		})
	}
	if failed == 0 || evicted == 0 {
		t.Errorf("cached trains failed %d upgrade re-checks and wrote back %d dirty blocks; want both", failed, evicted)
	}
}

// TestTrainDrainMidTrain kills a process parked mid-train, with a work
// continuation, a bus access or a cached access's fill pending, and fires
// the orphaned continuation: the process unwinds through its deferred
// functions and the continuation schedules nothing.
func TestTrainDrainMidTrain(t *testing.T) {
	steps := []Step{work(10), rd(2), work(10), wr(2), load(0, 0x4000, 8), rd(0), work(10)}
	for _, cut := range []sim.Time{5, 15, 25, 40, 60, 250} {
		cut := cut * sim.Nanosecond
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			eng, pr, _ := newProc()
			unwound, returned := false, false
			var tr Train
			p := eng.Spawn("p", func(*sim.Process) {
				defer func() { unwound = true }()
				tr.Run(pr, stats.Transfer, &listSteps{s: steps})
				returned = true
			})
			pr.Bind(p)
			eng.RunUntil(cut)
			if p.Done() || eng.Pending() == 0 {
				t.Fatalf("train not in flight at %v", cut)
			}
			if cut == 250*sim.Nanosecond && tr.op == nil {
				t.Fatalf("no cached access in flight at %v", cut)
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

// TestTrainStartDrain kills a process parked while a train it started for
// event context (Start) runs, closed and stepwise, and fires each
// continuation the train can have pending: none runs the done hook or
// schedules an event.
func TestTrainStartDrain(t *testing.T) {
	steps := []Step{work(10), rd(2), work(10), wr(2), rd(0), work(10)}
	for _, closed := range []bool{false, true} {
		for _, cut := range []sim.Time{5, 15, 25, 40} {
			cut := cut * sim.Nanosecond
			t.Run(fmt.Sprintf("closed=%v/%v", closed, cut), func(t *testing.T) {
				eng, pr, _ := newProc()
				if closed {
					pr.Bus.SetProcessorOnly()
				}
				var tr Train
				called, unwound := 0, false
				done := func(any, uint64) { called++ }
				p := eng.Spawn("p", func(p *sim.Process) {
					defer func() { unwound = true }()
					tr.Start(pr, stats.Transfer, &listSteps{s: steps}, done, nil)
					p.ParkUncharged()
				})
				pr.Bind(p)
				eng.RunUntil(cut)
				if p.Done() || eng.Pending() == 0 || called != 0 {
					t.Fatalf("train not in flight at %v", cut)
				}
				eng.Drain()
				if !p.Done() || !unwound {
					t.Fatalf("drain: done=%v unwound=%v", p.Done(), unwound)
				}
				n := eng.Pending()
				for _, h := range []sim.Handler{trainStep, trainDone, trainTail, trainEnd} {
					h(&tr, 0)
				}
				if called != 0 || eng.Pending() != n {
					t.Fatalf("continuations of a dead process ran the hook %d times and scheduled %d events", called, eng.Pending()-n)
				}
			})
		}
	}
}
