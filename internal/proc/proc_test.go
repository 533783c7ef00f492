package proc

import (
	"testing"

	"nisim/internal/cache"
	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

func newProc() (*sim.Engine, *Proc, *stats.Node) {
	eng := sim.NewEngine()
	st := stats.NewNode()
	bus := membus.New(eng, membus.DefaultTiming(), st)
	mem := mainmem.New("dram", 120*sim.Nanosecond, eng)
	bus.MapRange(0, 1<<31, mem)
	c := cache.New("c", eng, bus, cache.DefaultConfig(), st)
	pr := &Proc{ID: 0, Eng: eng, Bus: bus, Cache: c, Stats: st, CPU: sim.GHz(1)}
	return eng, pr, st
}

func run(t *testing.T, eng *sim.Engine, pr *Proc, body func()) {
	t.Helper()
	p := eng.Spawn("p", func(*sim.Process) { body() })
	pr.Bind(p)
	eng.Run()
	if !p.Done() {
		t.Fatal("process stuck")
	}
}

func TestComputeChargesComputeCategory(t *testing.T) {
	eng, pr, st := newProc()
	run(t, eng, pr, func() { pr.Compute(100) })
	if st.TimeIn[stats.Compute] != 100*sim.Nanosecond {
		t.Fatalf("compute time = %v, want 100ns", st.TimeIn[stats.Compute])
	}
}

func TestWorkChargesGivenCategory(t *testing.T) {
	eng, pr, st := newProc()
	run(t, eng, pr, func() { pr.Work(stats.Buffering, 50) })
	if st.TimeIn[stats.Buffering] != 50*sim.Nanosecond {
		t.Fatalf("buffering time = %v, want 50ns", st.TimeIn[stats.Buffering])
	}
}

// runTrain runs steps as one access train charged to category.
func runTrain(pr *Proc, category int, steps ...Step) {
	var tr Train
	tr.Run(pr, category, &listSteps{s: steps})
}

func TestUncachedOpsChargeTransfer(t *testing.T) {
	eng, pr, st := newProc()
	run(t, eng, pr, func() { runTrain(pr, stats.Transfer, rd(0), wr(0)) })
	if st.TimeIn[stats.Transfer] == 0 {
		t.Fatal("no transfer time for uncached ops")
	}
	if st.TimeIn[stats.Compute] != 0 {
		t.Fatalf("compute charged %v for uncached ops", st.TimeIn[stats.Compute])
	}
	if st.UncachedAccesses != 2 {
		t.Fatalf("uncached accesses = %d", st.UncachedAccesses)
	}
}

func TestBlockOpsIncludeInstructionOverhead(t *testing.T) {
	eng, pr, st := newProc()
	var dur sim.Time
	run(t, eng, pr, func() {
		start := pr.P.Now()
		runTrain(pr, stats.Transfer, blk(membus.BlockRead, 12))
		dur = pr.P.Now() - start
	})
	// 12 cycles + addr 8 + mem 120 + turn+2 beats 12 = 152ns
	if dur != 152*sim.Nanosecond {
		t.Fatalf("block read took %v, want 152ns", dur)
	}
	if st.BlockBufTransfers != 1 {
		t.Fatalf("block transfers = %d", st.BlockBufTransfers)
	}
}

func TestCachedOpsUseTheCache(t *testing.T) {
	eng, pr, _ := newProc()
	run(t, eng, pr, func() { runTrain(pr, stats.Transfer, store(0, 0x400, 64), load(0, 0x400, 64)) })
	if pr.Cache.Hits == 0 {
		t.Fatal("cached read after write did not hit")
	}
}

// TestCategoryRestoredAfterOps requires a train to charge its own
// category and leave the process's as it found it.
func TestCategoryRestoredAfterOps(t *testing.T) {
	eng, pr, st := newProc()
	run(t, eng, pr, func() {
		pr.P.Category = stats.Compute
		runTrain(pr, stats.Transfer, rd(0))
		if pr.P.Category != stats.Compute {
			t.Errorf("category not restored: %d", pr.P.Category)
		}
		runTrain(pr, stats.Buffering, load(0, 0x200, 8))
		if pr.P.Category != stats.Compute {
			t.Errorf("category not restored after cached op: %d", pr.P.Category)
		}
	})
	if st.TimeIn[stats.Transfer] == 0 || st.TimeIn[stats.Buffering] == 0 || st.TimeIn[stats.Compute] != 0 {
		t.Errorf("TimeIn = %v, want only Transfer and Buffering charged", st.TimeIn)
	}
}
