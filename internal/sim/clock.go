package sim

// Clock converts between cycle counts of a fixed-frequency clock and
// simulated time. The model machine has several: a 1 GHz processor clock, a
// 250 MHz memory-bus clock, and fixed device latencies.
type Clock struct {
	// Period is the duration of one cycle.
	Period Time
}

// MHz returns a clock with the given frequency in megahertz. The frequency
// must divide 1e6 MHz evenly in picoseconds (all Table 3 clocks do).
func MHz(f int64) Clock { return Clock{Period: Time(1_000_000/f) * Picosecond} }

// GHz returns a clock with the given frequency in gigahertz.
func GHz(f int64) Clock { return Clock{Period: Nanosecond / Time(f)} }

// Cycles returns the duration of n cycles.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.Period }

// Align rounds t up to the next cycle boundary of this clock (boundaries at
// multiples of Period from time zero).
func (c Clock) Align(t Time) Time {
	if c.Period <= 0 {
		return t
	}
	rem := t % c.Period
	if rem == 0 {
		return t
	}
	return t + c.Period - rem
}
