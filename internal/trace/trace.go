// Package trace provides structured event tracing for simulation runs: a
// time-stamped, category-tagged line per hardware event, for debugging NI
// models and inspecting protocol behavior. Tracing is off unless a Tracer
// is installed, and costs nothing when off.
package trace

import (
	"fmt"
	"io"

	"nisim/internal/sim"
)

// Category tags one subsystem's events.
type Category string

// Trace categories.
const (
	Bus Category = "bus" // memory-bus transactions
	NIC Category = "nic" // NI component seams: engine start/complete, buffer accept/bounce/reclaim
)

// Tracer writes time-stamped event lines. Each Tracer serves one
// simulation, and a traced machine runs on the serial engine, so it needs
// no lock.
type Tracer struct {
	w       io.Writer
	enabled map[Category]bool
}

// New creates a tracer writing to w, enabled for the given categories (all
// when none are listed).
func New(w io.Writer, cats ...Category) *Tracer {
	t := &Tracer{w: w}
	if len(cats) > 0 {
		t.enabled = make(map[Category]bool, len(cats))
		for _, c := range cats {
			t.enabled[c] = true
		}
	}
	return t
}

// Enabled reports whether a category is being traced.
func (t *Tracer) Enabled(c Category) bool {
	if t == nil {
		return false
	}
	return t.enabled == nil || t.enabled[c]
}

// Event writes one trace line: "<time> <category> node<id> <message>".
func (t *Tracer) Event(now sim.Time, c Category, node int, format string, args ...any) {
	if !t.Enabled(c) {
		return
	}
	fmt.Fprintf(t.w, "%12s %-3s node%-2d ", now, c, node)
	fmt.Fprintf(t.w, format, args...)
	fmt.Fprintln(t.w)
}
