package stats

import (
	"testing"
	"testing/quick"

	"nisim/internal/sim"
)

func TestAccountCategories(t *testing.T) {
	n := NewNode()
	n.Account(Compute, 10*sim.Nanosecond)
	n.Account(Transfer, 20*sim.Nanosecond)
	n.Account(Buffering, 30*sim.Nanosecond)
	n.Account(99, 5*sim.Nanosecond) // out of range -> compute
	if n.TimeIn[Compute] != 15*sim.Nanosecond {
		t.Fatalf("compute = %v", n.TimeIn[Compute])
	}
	if n.TimeIn[Transfer] != 20*sim.Nanosecond || n.TimeIn[Buffering] != 30*sim.Nanosecond {
		t.Fatalf("transfer = %v, buffering = %v", n.TimeIn[Transfer], n.TimeIn[Buffering])
	}
}

func TestMachineFraction(t *testing.T) {
	m := NewMachine(2)
	m.ExecTime = 100 * sim.Nanosecond
	m.Nodes[0].Account(Transfer, 40*sim.Nanosecond)
	m.Nodes[1].Account(Transfer, 20*sim.Nanosecond)
	if f := m.Fraction(Transfer); f != 0.3 {
		t.Fatalf("fraction = %v, want 0.3", f)
	}
	empty := NewMachine(0)
	if empty.Fraction(Transfer) != 0 {
		t.Fatal("empty machine fraction nonzero")
	}
}

func TestTotalSums(t *testing.T) {
	m := NewMachine(3)
	for i, n := range m.Nodes {
		n.MessagesSent = int64(i + 1)
		n.Bounces = int64(2 * (i + 1))
		n.RecordMessageSize(12)
	}
	tot := m.Total()
	if tot.MessagesSent != 6 {
		t.Fatalf("total sent = %d", tot.MessagesSent)
	}
	if tot.Bounces != 12 {
		t.Fatalf("total bounces = %d", tot.Bounces)
	}
	if tot.Sizes().Total() != 3 {
		t.Fatalf("merged histogram total = %d", tot.Sizes().Total())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 7; i++ {
		h.Add(12)
	}
	for i := 0; i < 3; i++ {
		h.Add(140)
	}
	if h.Total() != 10 || h.Count(12) != 7 {
		t.Fatalf("total=%d count12=%d", h.Total(), h.Count(12))
	}
	if f := h.Fraction(12); f != 0.7 {
		t.Fatalf("fraction = %v", f)
	}
	if m := h.Mean(); m != (7*12+3*140)/10.0 {
		t.Fatalf("mean = %v", m)
	}
	peaks := h.Peaks(10)
	if len(peaks) != 2 || peaks[0] != 12 || peaks[1] != 140 {
		t.Fatalf("peaks = %v", peaks)
	}
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Fraction(1) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram misbehaves")
	}
}

// Property: Merge preserves totals and counts.
func TestHistogramMergeProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		ha, hb := NewHistogram(), NewHistogram()
		for _, v := range a {
			ha.Add(int(v))
		}
		for _, v := range b {
			hb.Add(int(v))
		}
		merged := NewHistogram()
		merged.Merge(ha)
		merged.Merge(hb)
		if merged.Total() != int64(len(a)+len(b)) {
			return false
		}
		for v := 0; v < 256; v++ {
			if merged.Count(v) != ha.Count(v)+hb.Count(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: fractions over all observed values sum to 1.
func TestHistogramFractionsSumToOne(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Add(int(v))
		}
		var sum float64
		for _, v := range h.Peaks(1 << 20) {
			sum += h.Fraction(v)
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
