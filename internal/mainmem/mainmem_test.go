package mainmem

import (
	"testing"

	"nisim/internal/membus"
	"nisim/internal/sim"
)

func TestSerializedAccess(t *testing.T) {
	eng := sim.NewEngine()
	m := New("dram", 120*sim.Nanosecond, eng)
	// Two back-to-back claims at t=0: the second waits for the first.
	if d := m.HomeLatency(&membus.Transaction{Kind: membus.GetS}, eng.Now()); d != 120*sim.Nanosecond {
		t.Fatalf("first access latency %v, want 120ns", d)
	}
	if d := m.HomeLatency(&membus.Transaction{Kind: membus.GetS}, eng.Now()); d != 240*sim.Nanosecond {
		t.Fatalf("second access latency %v, want 240ns (queued)", d)
	}
	// After time passes, the module frees up.
	eng.AtEvent(500*sim.Nanosecond, func(any, uint64) {
		if d := m.HomeLatency(&membus.Transaction{Kind: membus.GetS}, eng.Now()); d != 120*sim.Nanosecond {
			t.Errorf("post-idle access latency %v, want 120ns", d)
		}
	}, nil, 0)
	eng.Run()
}

func TestClaimMatchesHomeLatency(t *testing.T) {
	eng := sim.NewEngine()
	m := New("sram", 60*sim.Nanosecond, eng)
	if d := m.Claim(); d != 60*sim.Nanosecond {
		t.Fatalf("Claim = %v, want 60ns", d)
	}
	if d := m.Claim(); d != 120*sim.Nanosecond {
		t.Fatalf("second Claim = %v, want 120ns", d)
	}
}

func TestNilEngineDisablesSerialization(t *testing.T) {
	m := New("flat", 100*sim.Nanosecond, nil)
	for i := 0; i < 3; i++ {
		if d := m.HomeLatency(&membus.Transaction{}, 0); d != 100*sim.Nanosecond {
			t.Fatalf("access %d latency %v, want constant 100ns", i, d)
		}
	}
}

func TestAccessCounters(t *testing.T) {
	eng := sim.NewEngine()
	m := New("dram", 0, eng)
	for _, k := range []membus.Kind{membus.GetS, membus.Writeback, membus.WriteInvalidate, membus.UncachedRead} {
		m.HomeLatency(&membus.Transaction{Kind: k}, 0)
	}
	if m.Reads != 2 || m.Writes != 2 {
		t.Fatalf("reads=%d writes=%d, want 2/2", m.Reads, m.Writes)
	}
}

// writebackLog is a Target that passes every access on to a Memory and
// records the address of each one in [lo, hi) it sees.
type writebackLog struct {
	*Memory
	lo, hi membus.Addr
	addrs  []membus.Addr
}

func (w *writebackLog) HomeLatency(t *membus.Transaction, at sim.Time) sim.Time {
	if t.Addr >= w.lo && t.Addr < w.hi {
		w.addrs = append(w.addrs, t.Addr)
	}
	return w.Memory.HomeLatency(t, at)
}

// TestWatchRanges writes back four blocks around a watched range through
// a bus: the range sees the two inside it, and the module counts all four.
func TestWatchRanges(t *testing.T) {
	eng := sim.NewEngine()
	m := New("dram", 0, eng)
	w := &writebackLog{Memory: m, lo: 0x1000, hi: 0x2000}
	bus := membus.New(eng, membus.DefaultTiming(), nil)
	bus.MapRange(0, 1<<30, w)
	for _, a := range []membus.Addr{0x0fff, 0x1000, 0x1fff, 0x2000} {
		bus.Issue(nil, membus.Writeback, a, 0, nil, nil)
	}
	eng.Run()
	if hits := w.addrs; len(hits) != 2 || hits[0] != 0x1000 || hits[1] != 0x1fff {
		t.Fatalf("watcher hits = %#x", hits)
	}
	if m.Writes != 4 {
		t.Fatalf("writes = %d, want 4", m.Writes)
	}
}
