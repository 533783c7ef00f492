package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settledGoroutines returns runtime.NumGoroutine once the count has held
// still for several consecutive samples, so that a goroutine an earlier
// test left exiting (its test runner's, say) does not enter a baseline.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; still < 5 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Process) {
		p.Sleep(100 * Nanosecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 100*Nanosecond {
		t.Fatalf("woke at %v, want 100ns", wake)
	}
}

func TestProcessInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Process) {
		order = append(order, "a0")
		p.Sleep(10 * Nanosecond)
		order = append(order, "a1")
		p.Sleep(20 * Nanosecond)
		order = append(order, "a2") // t=30
	})
	e.Spawn("b", func(p *Process) {
		order = append(order, "b0")
		p.Sleep(15 * Nanosecond)
		order = append(order, "b1")
		p.Sleep(10 * Nanosecond)
		order = append(order, "b2") // t=25
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "b2", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcessDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var stamps []Time
		for i := 0; i < 8; i++ {
			d := Time(7*i%5+1) * Nanosecond
			e.Spawn("p", func(p *Process) {
				for j := 0; j < 10; j++ {
					p.Sleep(d)
					stamps = append(stamps, p.Now())
				}
			})
		}
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCondWaitSignal(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	ready := false
	var consumedAt Time
	e.Spawn("consumer", func(p *Process) {
		for !ready {
			c.Wait(p)
		}
		consumedAt = p.Now()
	})
	e.Spawn("producer", func(p *Process) {
		p.Sleep(50 * Nanosecond)
		ready = true
		c.Broadcast()
	})
	e.Run()
	if consumedAt != 50*Nanosecond {
		t.Fatalf("consumer resumed at %v, want 50ns", consumedAt)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Process) {
			c.Wait(p)
			woken++
		})
	}
	e.Spawn("b", func(p *Process) {
		p.Sleep(Nanosecond)
		if c.Waiters() != 5 {
			t.Errorf("waiters = %d, want 5", c.Waiters())
		}
		c.Broadcast()
	})
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine()
	var target *Process
	var resumedAt Time
	target = e.Spawn("parker", func(p *Process) {
		p.Park()
		resumedAt = p.Now()
	})
	e.Spawn("waker", func(p *Process) {
		p.Sleep(33 * Nanosecond)
		target.Unpark()
	})
	e.Run()
	if resumedAt != 33*Nanosecond {
		t.Fatalf("resumed at %v, want 33ns", resumedAt)
	}
}

func TestBlockedAccounting(t *testing.T) {
	e := NewEngine()
	acc := map[int]Time{}
	e.Spawn("p", func(p *Process) {
		p.OnBlocked = func(cat int, d Time) { acc[cat] += d }
		p.Category = 1
		p.Sleep(10 * Nanosecond)
		p.SleepAs(2, 20*Nanosecond)
		if p.Category != 1 {
			t.Errorf("SleepAs did not restore category: %d", p.Category)
		}
		p.Sleep(5 * Nanosecond)
	})
	e.Run()
	if acc[1] != 15*Nanosecond {
		t.Fatalf("category 1 time = %v, want 15ns", acc[1])
	}
	if acc[2] != 20*Nanosecond {
		t.Fatalf("category 2 time = %v, want 20ns", acc[2])
	}
}

func TestDrainKillsParked(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine()
	reached := false
	deferred := 0
	e.Spawn("stuck", func(p *Process) {
		defer func() { deferred++ }()
		p.Park()
		reached = true // must never run
	})
	e.Run()
	e.Drain()
	if reached {
		t.Fatal("killed process continued executing")
	}
	if deferred != 1 {
		t.Fatalf("deferred function ran %d times, want 1", deferred)
	}
	if e.procs.oldest != nil || e.procs.newest != nil {
		t.Fatal("process registry not empty after Drain")
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("goroutines = %d after Drain, want baseline %d", n, base)
	}
}

// TestDrainDeferBlocks kills a process whose deferred function blocks
// again during the unwind: the second suspend must unwind too instead of
// hanging Drain or escaping it.
func TestDrainDeferBlocks(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine()
	deferred, after := 0, 0
	e.Spawn("blocker", func(p *Process) {
		defer func() {
			deferred++
			p.Sleep(Nanosecond)
			after++ // must never run
		}()
		p.Park()
	})
	e.Run()
	e.Drain()
	if deferred != 1 || after != 0 {
		t.Fatalf("deferred entered %d times and resumed %d times, want 1 and 0", deferred, after)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("goroutines = %d after Drain, want baseline %d", n, base)
	}
}

func TestDrainSpawnOrder(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine()
	var killed []string
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		finishes := i%2 == 1 // b and d return; a, c and e stay parked
		e.Spawn(name, func(p *Process) {
			if finishes {
				return
			}
			defer func() { killed = append(killed, name) }()
			p.Park()
		})
	}
	e.Run()
	if n := runtime.NumGoroutine(); n != base+3 {
		t.Fatalf("goroutines = %d with three parked processes, want %d", n, base+3)
	}
	// A process that has not started yet is killed without running.
	late := e.Spawn("late", func(p *Process) { killed = append(killed, "late") })
	e.Drain()
	if got := strings.Join(killed, ","); got != "a,c,e" {
		t.Fatalf("Drain killed in order %s, want a,c,e", got)
	}
	if !late.Done() {
		t.Fatal("process killed before it started is not Done")
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("goroutines = %d after Drain, want baseline %d", n, base)
	}
}

// TestProcessPanicEscapesRun checks that a panicking body re-panics out of
// Run with the same value and leaves the process retired.
func TestProcessPanicEscapesRun(t *testing.T) {
	type boom struct{ at Time }
	base := settledGoroutines()
	e := NewEngine()
	p := e.Spawn("crasher", func(p *Process) {
		p.Sleep(5 * Nanosecond)
		panic(boom{p.Now()})
	})
	func() {
		defer func() {
			if r := recover(); r != (boom{5 * Nanosecond}) {
				t.Fatalf("Run panicked with %v, want boom{5ns}", r)
			}
		}()
		e.Run()
		t.Fatal("Run returned normally")
	}()
	if !p.Done() || e.procs.oldest != nil {
		t.Fatal("panicked process still registered as live")
	}
	e.Drain()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("goroutines = %d after Drain, want baseline %d", n, base)
	}
}

func TestProcessDone(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("quick", func(p *Process) { p.Sleep(Nanosecond) })
	if p.Done() {
		t.Fatal("Done before running")
	}
	e.Run()
	if !p.Done() {
		t.Fatal("not Done after completion")
	}
}

func TestYieldOrdersAfterCurrentEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("y", func(p *Process) {
		order = append(order, "before")
		p.Yield()
		order = append(order, "after")
	})
	e.AfterEvent(0, func(any, uint64) { order = append(order, "event") }, nil, 0)
	e.Run()
	// The spawned process starts first (scheduled first), yields, the plain
	// event runs, then the process resumes.
	want := []string{"before", "event", "after"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSleepZeroIsNoop(t *testing.T) {
	e := NewEngine()
	e.Spawn("z", func(p *Process) {
		p.Sleep(0)
		if p.Now() != 0 {
			t.Errorf("zero sleep advanced time to %v", p.Now())
		}
	})
	e.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Spawn("n", func(p *Process) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Sleep(-Nanosecond)
	})
	e.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

// TestParkUnchargedCharge parks a process uncharged while event context
// charges its work: each Charge reaches OnBlocked with its own category,
// the park itself charges nothing, and the process's Category is never
// touched.
func TestParkUnchargedCharge(t *testing.T) {
	e := NewEngine()
	acc := map[int]Time{}
	var target *Process
	target = e.Spawn("p", func(p *Process) {
		p.OnBlocked = func(cat int, d Time) { acc[cat] += d }
		p.Category = 1
		p.ParkUncharged()
		if p.Category != 1 {
			t.Errorf("the park changed the category to %d", p.Category)
		}
	})
	e.Spawn("w", func(p *Process) {
		p.Sleep(25 * Nanosecond)
		target.Charge(7, 10*Nanosecond)
		target.Charge(8, 25*Nanosecond) // nothing since the start: no charge
		target.Unpark()
	})
	e.Run()
	if len(acc) != 1 || acc[7] != 15*Nanosecond {
		t.Fatalf("charged %v, want 15ns to category 7 only", acc)
	}
}

func TestUnparkDoneProcessIsNoop(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("q", func(p *Process) {})
	e.Run()
	p.Unpark() // must not panic or enqueue work for a dead process
	e.Run()
	if !p.Done() {
		t.Fatal("process not done")
	}
}
