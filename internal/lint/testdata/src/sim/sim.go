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

// Spawn starts a cooperative process.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process { return &Process{} }

// Process is a stub cooperative process.
type Process struct{}

// Sleep blocks the process for d.
func (p *Process) Sleep(d Time) {}

// Unpark wakes a parked process.
func (p *Process) Unpark() {}
