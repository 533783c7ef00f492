package sim

import "testing"

func TestAlignExactBoundary(t *testing.T) {
	c := MHz(250) // 4 ns period
	if got := c.Align(0); got != 0 {
		t.Fatalf("Align(0) = %v, want 0", got)
	}
	for _, mult := range []Time{1, 2, 3, 1000} {
		at := mult * c.Period
		if got := c.Align(at); got != at {
			t.Fatalf("Align(%v) = %v, want unchanged (exact boundary)", at, got)
		}
	}
	// One picosecond past a boundary rounds up to the next one.
	at := 2 * c.Period
	if got := c.Align(at + Picosecond); got != at+c.Period {
		t.Fatalf("Align(%v) = %v, want %v", at+Picosecond, got, at+c.Period)
	}
	// One picosecond before a boundary also lands on it.
	if got := c.Align(at - Picosecond); got != at {
		t.Fatalf("Align(%v) = %v, want %v", at-Picosecond, got, at)
	}
}

func TestAlignDegenerateClock(t *testing.T) {
	at := 7 * Nanosecond
	for _, c := range []Clock{{Period: 0}, {Period: -Nanosecond}} {
		if got := c.Align(at); got != at {
			t.Fatalf("Align with Period=%v changed %v to %v, want identity", c.Period, at, got)
		}
	}
}

func TestCyclesZeroAndNegativeCounts(t *testing.T) {
	c := GHz(1)
	if got := c.Cycles(0); got != 0 {
		t.Fatalf("Cycles(0) = %v, want 0", got)
	}
	if got := c.Cycles(5); got != 5*Nanosecond {
		t.Fatalf("Cycles(5) = %v, want 5ns", got)
	}
}
