package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	note := func(_ any, arg uint64) { got = append(got, int(arg)) }
	e.AtEvent(30*Nanosecond, note, nil, 3)
	e.AtEvent(10*Nanosecond, note, nil, 1)
	e.AtEvent(20*Nanosecond, note, nil, 2)
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("final time = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	note := func(_ any, arg uint64) { got = append(got, int(arg)) }
	for i := 0; i < 10; i++ {
		e.AtEvent(5*Nanosecond, note, nil, uint64(i))
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.AtEvent(10*Nanosecond, func(any, uint64) {}, nil, 0)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.AtEvent(5*Nanosecond, func(any, uint64) {}, nil, 0)
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.AfterEvent(10*Nanosecond, func(any, uint64) {
		fired = append(fired, e.Now())
		e.AfterEvent(15*Nanosecond, func(any, uint64) { fired = append(fired, e.Now()) }, nil, 0)
	}, nil, 0)
	e.Run()
	if len(fired) != 2 || fired[0] != 10*Nanosecond || fired[1] != 25*Nanosecond {
		t.Fatalf("nested scheduling wrong: %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.AtEvent(Time(i)*Nanosecond, func(any, uint64) { count++ }, nil, 0)
	}
	e.RunUntil(5 * Nanosecond)
	if count != 5 {
		t.Fatalf("RunUntil ran %d events, want 5", count)
	}
	if e.Now() != 5*Nanosecond {
		t.Fatalf("now = %v, want 5ns", e.Now())
	}
	e.RunUntil(100 * Nanosecond)
	if count != 10 || e.Now() != 100*Nanosecond {
		t.Fatalf("count=%d now=%v after second RunUntil", count, e.Now())
	}
}

func TestRunWhile(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.AtEvent(Time(i)*Nanosecond, func(any, uint64) { count++ }, nil, 0)
	}
	e.RunWhile(func() bool { return count < 3 })
	if count != 3 {
		t.Fatalf("RunWhile stopped at %d events, want 3", count)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.AtEvent(1*Nanosecond, func(any, uint64) { count++; e.Stop() }, nil, 0)
	e.AtEvent(2*Nanosecond, func(any, uint64) { count++ }, nil, 0)
	e.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt the loop: count=%d", count)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

// Property: for any random multiset of timestamps, the engine fires events
// in nondecreasing time order and same-time events in scheduling order.
func TestEventOrderIsTotalOrder(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, s := range stamps {
			i, at := i, Time(s)*Nanosecond
			e.AtEvent(at, func(any, uint64) { got = append(got, rec{at, i}) }, nil, 0)
		}
		e.Run()
		if len(got) != len(stamps) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		}) {
			return false
		}
		// Already-sorted check above allows equality; verify strict total order
		// over (time, seq) pairs by uniqueness of seq.
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving After scheduling from inside events preserves
// causality (an event scheduled with delay d fires exactly d later).
func TestAfterDelayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	errs := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		if depth > 4 {
			return
		}
		d := Time(rng.Intn(100)) * Nanosecond
		base := e.Now()
		e.AfterEvent(d, func(any, uint64) {
			if e.Now() != base+d {
				errs++
			}
			schedule(depth + 1)
			schedule(depth + 1)
		}, nil, 0)
	}
	schedule(0)
	e.Run()
	if errs != 0 {
		t.Fatalf("%d events fired at wrong time", errs)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500 * Picosecond:               "500ps",
		2 * Nanosecond:                 "2.000ns",
		1500 * Nanosecond:              "1.500us",
		2500 * Microsecond:             "2.500ms",
		3*Microsecond + 420*Nanosecond: "3.420us",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestClock(t *testing.T) {
	bus := MHz(250)
	if bus.Period != 4*Nanosecond {
		t.Fatalf("250 MHz period = %v, want 4ns", bus.Period)
	}
	cpu := GHz(1)
	if cpu.Period != Nanosecond {
		t.Fatalf("1 GHz period = %v, want 1ns", cpu.Period)
	}
	if bus.Cycles(3) != 12*Nanosecond {
		t.Fatalf("Cycles(3) = %v", bus.Cycles(3))
	}
	if bus.Align(9*Nanosecond) != 12*Nanosecond {
		t.Fatalf("Align(9ns) = %v, want 12ns", bus.Align(9*Nanosecond))
	}
	if bus.Align(8*Nanosecond) != 8*Nanosecond {
		t.Fatalf("Align(8ns) = %v, want 8ns", bus.Align(8*Nanosecond))
	}
}

func TestEventsAndPendingCounters(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.AfterEvent(Nanosecond, func(any, uint64) {}, nil, 0)
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run()
	if e.Events() != 5 || e.Pending() != 0 {
		t.Fatalf("Events=%d Pending=%d", e.Events(), e.Pending())
	}
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.AfterEvent(-Nanosecond, func(any, uint64) {}, nil, 0)
}

func TestTimeConversions(t *testing.T) {
	if (1500 * Nanosecond).Microseconds() != 1.5 {
		t.Fatal("Microseconds conversion wrong")
	}
	if (2 * Microsecond).Nanoseconds() != 2000 {
		t.Fatal("Nanoseconds conversion wrong")
	}
}
