// Package sim is a miniature stand-in for the simulation kernel, giving
// fixtures a Time type with unit constants and an Engine with the
// scheduling API the analyzers recognize.
package sim

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
)

// Engine is a stub event loop.
type Engine struct{ now Time }

// NewEngine returns a stub engine.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Handler is the code half of a typed event.
type Handler func(recv any, arg uint64)

// AtEvent schedules h(recv, arg) at absolute time t.
func (e *Engine) AtEvent(t Time, h Handler, recv any, arg uint64) {}

// AfterEvent schedules h(recv, arg) d after now.
func (e *Engine) AfterEvent(d Time, h Handler, recv any, arg uint64) {}

// AtEventFrom schedules h(recv, arg) at t as if scheduled at schedAt.
func (e *Engine) AtEventFrom(t, schedAt Time, h Handler, recv any, arg uint64) {}

// RunWindow runs the events before end.
func (e *Engine) RunWindow(end Time) {}

// Spawn starts a cooperative process.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process { return &Process{} }

// Process is a stub cooperative process.
type Process struct{}

// Sleep blocks the process for d.
func (p *Process) Sleep(d Time) {}

// Unpark wakes a parked process.
func (p *Process) Unpark() {}

// ParkUncharged parks the process without charging the wait.
func (p *Process) ParkUncharged() {}

// Resume switches into the parked process now.
func (p *Process) Resume() {}
