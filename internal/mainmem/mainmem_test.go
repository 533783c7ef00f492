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
	if d := m.HomeLatency(&membus.Transaction{Kind: membus.GetS}); d != 120*sim.Nanosecond {
		t.Fatalf("first access latency %v, want 120ns", d)
	}
	if d := m.HomeLatency(&membus.Transaction{Kind: membus.GetS}); d != 240*sim.Nanosecond {
		t.Fatalf("second access latency %v, want 240ns (queued)", d)
	}
	// After time passes, the module frees up.
	eng.AtEvent(500*sim.Nanosecond, func(any, uint64) {
		if d := m.HomeLatency(&membus.Transaction{Kind: membus.GetS}); d != 120*sim.Nanosecond {
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
		if d := m.HomeLatency(&membus.Transaction{}); d != 100*sim.Nanosecond {
			t.Fatalf("access %d latency %v, want constant 100ns", i, d)
		}
	}
}

func TestAccessCounters(t *testing.T) {
	eng := sim.NewEngine()
	m := New("dram", 0, eng)
	m.HomeAccess(&membus.Transaction{Kind: membus.GetS})
	m.HomeAccess(&membus.Transaction{Kind: membus.Writeback})
	m.HomeAccess(&membus.Transaction{Kind: membus.WriteInvalidate})
	m.HomeAccess(&membus.Transaction{Kind: membus.UncachedRead})
	if m.Reads != 2 || m.Writes != 2 {
		t.Fatalf("reads=%d writes=%d, want 2/2", m.Reads, m.Writes)
	}
}

func TestWatchRanges(t *testing.T) {
	eng := sim.NewEngine()
	m := New("dram", 0, eng)
	var hits []membus.Addr
	m.Watch(0x1000, 0x2000, func(tr *membus.Transaction) { hits = append(hits, tr.Addr) })
	m.HomeAccess(&membus.Transaction{Kind: membus.Writeback, Addr: 0x0fff})
	m.HomeAccess(&membus.Transaction{Kind: membus.Writeback, Addr: 0x1000})
	m.HomeAccess(&membus.Transaction{Kind: membus.Writeback, Addr: 0x1fff})
	m.HomeAccess(&membus.Transaction{Kind: membus.Writeback, Addr: 0x2000})
	if len(hits) != 2 || hits[0] != 0x1000 || hits[1] != 0x1fff {
		t.Fatalf("watcher hits = %#x", hits)
	}
}
