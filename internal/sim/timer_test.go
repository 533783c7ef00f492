package sim

import (
	"runtime"
	"slices"
	"testing"
)

func TestTimerStopRemovesEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AfterTimer(10*Nanosecond, func(any, uint64) { fired = true }, nil, 0)
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer should report true")
	}
	if tm.Active() {
		t.Fatal("timer should be inactive after Stop")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop+Run, want 0", e.Pending())
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.AfterTimer(Nanosecond, func(any, uint64) { fired++ }, nil, 0)
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Active() {
		t.Fatal("timer reports active after firing")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Active() {
		t.Fatal("zero Timer reports active")
	}
	if tm.Stop() {
		t.Fatal("zero Timer Stop reports true")
	}
}

// TestStaleTimerCannotCancelRecycledEvent is the ABA guard: a Timer whose
// event fired (returning the record to the pool) must not cancel an
// unrelated event that later reuses the same record.
func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	tm := e.AfterTimer(Nanosecond, func(any, uint64) {}, nil, 0)
	e.Run()

	// The pool now holds the fired record; this schedule reuses it.
	fired := false
	e.AfterTimer(Nanosecond, func(any, uint64) { fired = true }, nil, 0)
	if tm.Stop() {
		t.Fatal("stale Timer.Stop claimed to cancel a recycled event")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event was cancelled by a stale timer handle")
	}
}

// TestSameTimeFIFOMixedKinds verifies FIFO-at-same-timestamp across typed
// events, timers and a process resume interleaved: among node-local events
// the firing order is exactly the scheduling order. Network posts that tie
// on (time, schedule stamp) follow them, ordered by posting node.
func TestSameTimeFIFOMixedKinds(t *testing.T) {
	e := NewEngine()
	var got []int
	note := func(_ any, arg uint64) { got = append(got, int(arg)) }
	at := 5 * Nanosecond
	e.AtEvent(at, note, nil, 0)
	e.Spawn("p", func(p *Process) {
		p.Sleep(at) // the resume lands between the event above and the timer below
		got = append(got, 1)
	})
	e.RunUntil(0)
	e.AtEventPosted(at, 9, 1, note, nil, 5)
	e.AtTimer(at, note, nil, 2)
	e.AtEventPosted(at, 2, 7, note, nil, 4)
	e.AtEvent(at, note, nil, 3)
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestReArmedTimerFIFOOrder is the regression test for timer re-arming: a
// timer stopped and re-armed at the same timestamp as other pending events
// fires in its NEW schedule position (after events scheduled before the
// re-arm), not its original one.
func TestReArmedTimerFIFOOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	note := func(recv any, arg uint64) { got = append(got, int(arg)) }
	at := 10 * Nanosecond
	tm := e.AtTimer(at, note, nil, 0) // original position: first
	e.AtEvent(at, note, nil, 1)
	e.AtEvent(at, note, nil, 2)
	tm.Stop()
	e.AtTimer(at, note, nil, 0) // re-armed: now last
	e.Run()
	want := []int{1, 2, 0}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestCancelMiddleEventPreservesOrder removes an event from the middle of a
// same-timestamp run and checks the survivors keep their relative order.
func TestCancelMiddleEventPreservesOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	note := func(recv any, arg uint64) { got = append(got, int(arg)) }
	at := 10 * Nanosecond
	var timers []Timer
	for i := 0; i < 9; i++ {
		timers = append(timers, e.AtTimer(at, note, nil, uint64(i)))
	}
	timers[4].Stop()
	timers[7].Stop()
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestTypedScheduleAllocFree is the allocation gate for the hot path: a
// steady-state schedule→fire cycle of typed events must not allocate in
// either tier of the queue, and neither may arming and stopping a timer in
// either tier.
func TestTypedScheduleAllocFree(t *testing.T) {
	e := NewEngine()
	type node struct{ count int }
	n := &node{}
	var tick Handler
	tick = func(recv any, _ uint64) {
		nd := recv.(*node)
		nd.count++
		if nd.count%2 == 0 {
			e.AfterEvent(Nanosecond, tick, nd, 0)
		}
	}
	// Warm the pool and the far heap's backing array.
	e.AfterEvent(Nanosecond, tick, n, 0)
	e.AfterEvent(Nanosecond, tick, n, 0)
	e.AfterEvent(2*nearHorizon, tick, n, 1)
	e.Run()

	for _, c := range []struct {
		name string
		d    Time
	}{{"near", Nanosecond}, {"far", 2 * nearHorizon}} {
		allocs := testing.AllocsPerRun(1000, func() {
			e.AfterEvent(c.d, tick, n, 0)
			for e.Step() {
			}
		})
		if allocs != 0 {
			t.Fatalf("%s-tier typed schedule/fire allocates %.1f per run, want 0", c.name, allocs)
		}
		allocs = testing.AllocsPerRun(1000, func() {
			tm := e.AfterTimer(c.d, tick, n, 0)
			if !tm.Stop() {
				t.Fatal("Stop on a pending timer reported false")
			}
		})
		if allocs != 0 {
			t.Fatalf("%s-tier timer arm/stop allocates %.1f per run, want 0", c.name, allocs)
		}
	}
}

// TestProcessResumeAllocFree gates the highest-frequency scheduling site:
// the process unpark/yield path must ride the pooled typed-event records.
func TestProcessResumeAllocFree(t *testing.T) {
	e := NewEngine()
	stop := false
	p := e.Spawn("spinner", func(p *Process) {
		for !stop {
			p.Park()
		}
	})
	e.Run() // park the process

	allocs := testing.AllocsPerRun(1000, func() {
		p.Unpark()
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("unpark/resume allocates %.1f per run, want 0", allocs)
	}
	stop = true
	p.Unpark()
	e.Run()
	e.Drain()
}

// TestHeapShrinksAfterDrain verifies the far heap's backing array
// contracts once a large burst scheduled beyond the near tier drains,
// instead of pinning peak-queue memory for the run.
func TestHeapShrinksAfterDrain(t *testing.T) {
	e := NewEngine()
	const burst = 4 * minHeapCap
	for i := 0; i < burst; i++ {
		e.AtEvent(nearHorizon+Time(i)*Nanosecond, func(any, uint64) {}, nil, 0)
	}
	peak := cap(e.pq.far)
	if peak < burst {
		t.Fatalf("far cap %d after %d pushes beyond the horizon, want >= %d", peak, burst, burst)
	}
	e.Run()
	if got := cap(e.pq.far); got >= peak {
		t.Fatalf("far heap cap %d did not shrink from peak %d after drain", got, peak)
	}
	// The engine must still work after shrinking.
	fired := false
	e.AfterEvent(Nanosecond, func(any, uint64) { fired = true }, nil, 0)
	e.Run()
	if !fired {
		t.Fatal("event lost after heap shrink")
	}
}

// TestNewEngineFootprint bounds what one engine costs before it runs
// anything: the near tier's bucket arrays live inline in the Engine, so a
// wider ring shows up here (and in every cell's setup time).
func TestNewEngineFootprint(t *testing.T) {
	const n = 64
	engines := make([]*Engine, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range engines {
		engines[i] = NewEngine()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 8<<10 {
		t.Fatalf("NewEngine allocates %d bytes, want <= %d", per, 8<<10)
	}
	runtime.KeepAlive(engines)
}

// TestEventPoolBounded verifies the free list stops growing at its cap so
// a one-off burst cannot pin its footprint forever.
func TestEventPoolBounded(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 2*maxPooledEvents; i++ {
		e.AtEvent(Time(i)*Picosecond, func(any, uint64) {}, nil, 0)
	}
	e.Run()
	if e.pooled > maxPooledEvents {
		t.Fatalf("pool holds %d records, cap is %d", e.pooled, maxPooledEvents)
	}
}
