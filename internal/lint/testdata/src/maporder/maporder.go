// Package maporder exercises the maporder pass: map-iteration order must
// not leak into event scheduling, slice order, float accumulation, or
// output. Order-independent loop bodies and the collect-then-sort idiom
// are accepted.
package maporder

import (
	"fmt"
	"sort"

	"sim"
)

func schedulesDirect(e *sim.Engine, delays map[int]int) {
	for k, v := range delays {
		e.AfterEvent(sim.Time(v)*sim.Nanosecond, nil, nil, uint64(k)) // want `reaches the event queue`
	}
}

// schedulesFrom schedules with an explicit stamp, as a precomputed chain
// of steps does.
func schedulesFrom(e *sim.Engine, at map[int]sim.Time) {
	for k, t := range at {
		e.AtEventFrom(t, 0, nil, nil, uint64(k)) // want `reaches the event queue`
	}
}

// resumesParked switches into processes in map order: the order they run
// in is the order their events are scheduled.
func resumesParked(parked map[string]*sim.Process) {
	for _, p := range parked {
		p.Resume() // want `reaches the event queue`
	}
}

// parksEach parks processes in map order.
func parksEach(ps map[int]*sim.Process) {
	for _, p := range ps {
		p.ParkUncharged() // want `reaches the event queue`
	}
}

// runsWindows runs engines' windows in map order.
func runsWindows(engines map[int]*sim.Engine, end sim.Time) {
	for _, e := range engines {
		e.RunWindow(end) // want `reaches the event queue`
	}
}

func helper(e *sim.Engine) { e.AfterEvent(sim.Nanosecond, nil, nil, 0) }

func wake(e *sim.Engine) { helper(e) }

func schedulesTransitive(e *sim.Engine, pending map[string]bool) {
	for name := range pending {
		_ = name
		wake(e) // want `reaches the event queue`
	}
}

func appendsUnsorted(m map[string]int) []string {
	var names []string
	for k := range m {
		names = append(names, k) // want `append to names`
	}
	return names
}

func accumulatesFloat(weights map[int]float64) float64 {
	var sum float64
	for _, w := range weights {
		sum += w // want `floating-point accumulation`
	}
	return sum
}

func printsEntries(m map[int]string) {
	for k, v := range m {
		fmt.Printf("%d=%s\n", k, v) // want `output written in map-iteration order`
	}
}

// collectThenSort is the sanctioned idiom: gather the keys, sort them, and
// only then act in a deterministic order.
func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// countsEntries accumulates integers, which is associative and therefore
// order-independent: accepted.
func countsEntries(m map[string]int) int {
	var total int
	for _, v := range m {
		total += v
	}
	return total
}

// localScratch appends only to a slice scoped inside the loop body, so no
// ordering can escape: accepted.
func localScratch(m map[int][]byte) int {
	n := 0
	for _, bs := range m {
		var local []int
		local = append(local, len(bs))
		n += local[0]
	}
	return n
}
