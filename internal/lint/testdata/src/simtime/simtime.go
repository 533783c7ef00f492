// Package simtime exercises the simtime pass: durations must be composed
// from sim unit constants, not bare numbers or raw integer conversions.
package simtime

import "sim"

const tick = 5 * sim.Nanosecond

// Cfg carries two durations.
type Cfg struct {
	Latency sim.Time
	Budget  sim.Time
}

func schedule(e *sim.Engine, n int64) {
	e.AfterEvent(100, nil, nil, 0)                        // want `bare constant 100`
	e.AfterEvent(0, nil, nil, 0)                          // zero needs no unit
	e.AfterEvent(2*sim.Nanosecond, nil, nil, 0)           // composed from a unit constant
	e.AfterEvent(tick, nil, nil, 0)                       // named constant carries the unit
	e.AfterEvent(sim.Time(n), nil, nil, 0)                // want `raw integer→sim.Time conversion`
	e.AfterEvent(sim.Time(n)*sim.Nanosecond, nil, nil, 0) // scalar scaling of a unit
}

func configs() []Cfg {
	return []Cfg{
		{Latency: 40 * sim.Nanosecond, Budget: tick},
		{Latency: 500, Budget: 0}, // want `bare constant 500`
	}
}

// scale divides by a dimensionless count: the conversion sits inside
// arithmetic against a unit-carrying operand, which is accepted.
func scale(total sim.Time, rounds int) sim.Time {
	return total / sim.Time(rounds)
}
