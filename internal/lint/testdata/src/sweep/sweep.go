// Package sweep stands in for the experiment orchestrator: the one
// sanctioned concurrency point besides the partition layer. Goroutines,
// channels, and sync are accepted here — but a goroutine that statically
// reaches the simulator (directly or through helpers) is rejected;
// simulations may enter the sweep only as opaque job closures.
package sweep

import (
	"sync"

	"sim"
)

// Job carries an opaque simulation closure, the only sanctioned way for
// simulation work to reach a worker goroutine.
type Job struct{ Run func() float64 }

// fan is the sanctioned pattern: workers pull indices from a channel and
// run opaque job closures, joining on a WaitGroup.
func fan(jobs []Job) []float64 {
	out := make([]float64, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = jobs[i].Run()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// leakDirect spawns a goroutine that drives the simulator directly: the
// simulation would no longer be single-threaded inside its worker.
func leakDirect(e *sim.Engine) {
	go e.Spawn("worker", nil) // want `orchestrator goroutine reaches the simulation`
}

// leakTransitive reaches the scheduler through a local helper; the
// transitive call graph still catches it.
func leakTransitive(e *sim.Engine) {
	go func() {
		tick(e) // want `orchestrator goroutine reaches the simulation`
	}()
}

func tick(e *sim.Engine) { e.AfterEvent(sim.Nanosecond, nil, nil, 0) }
