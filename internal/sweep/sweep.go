// Package sweep is the experiment orchestrator: it fans independent
// simulator configurations out across worker goroutines and collects their
// results in deterministic submission order, regardless of completion
// order. Every table/figure driver (nisim table5, nisim fig3, ...) and the
// bench harness submits its grid of (NI model x buffer size x application)
// points through this package instead of looping serially, so a full
// evaluation regeneration uses every core the host has.
//
// Concurrency contract (see DESIGN.md "Experiment orchestration"): this is
// the one sanctioned concurrency point outside the simulation kernel.
// Each simulation remains strictly single-threaded inside its own
// goroutine — the package imports nothing from the simulator, and jobs
// reach it only as opaque closures, so a worker goroutine cannot touch
// simulation state except by calling a closure that constructs a fresh,
// share-nothing machine. The nogoroutine lint pass enforces exactly this:
// goroutines here may not statically reach the sim kernel's scheduling
// API. Determinism is preserved because results are written to the slot
// matching their submission index and read only after all workers join.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// An Outcome is what one job's simulation produced: numeric metrics
// (latencies, bandwidths, execution times, counters) plus free-form string
// facts (histogram peaks, recovery summaries). Both maps serialize with
// sorted keys, so an Outcome renders deterministically.
type Outcome struct {
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Info    map[string]string  `json:"info,omitempty"`
}

// A Job is one independent simulator configuration: an identifier, the
// machine-readable configuration axes it represents, and a closure that
// runs the simulation. Run must be self-contained — it builds its own
// machine, shares no mutable state with other jobs, and is called at most
// once per Run invocation, possibly from a worker goroutine.
type Job struct {
	// ID uniquely identifies the job within its grid,
	// e.g. "lat/CNI_32Q/64B".
	ID string `json:"id"`
	// Config records the configuration axes (ni, app, bufs, payload, ...)
	// for the machine-readable report.
	Config map[string]string `json:"config,omitempty"`
	// Run executes the simulation and returns its metrics.
	Run func() Outcome `json:"-"`
}

// A Result pairs a job's identity with its outcome. Err carries a panic
// message or timeout notice; a timed-out result is inherently
// nondeterministic (it depends on host speed) and is flagged as such.
type Result struct {
	ID       string             `json:"id"`
	Config   map[string]string  `json:"config,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Info     map[string]string  `json:"info,omitempty"`
	Err      string             `json:"err,omitempty"`
	TimedOut bool               `json:"timed_out,omitempty"`

	// WallMS is the host wall-clock time the job took. It is the only
	// run-dependent field and is serialized in the report's timing
	// sidecar, never alongside the deterministic results.
	WallMS float64 `json:"-"`
}

// Config controls one orchestrated run.
type Config struct {
	// Jobs is the worker count; 0 or negative means runtime.NumCPU().
	// Jobs=1 reproduces the historical serial execution order exactly.
	Jobs int
	// Timeout is the per-job wall-clock budget; 0 means none. A job that
	// exceeds it is abandoned (its goroutine is leaked until the
	// simulation finishes — acceptable for a CLI process, see runJob) and
	// reported with TimedOut set.
	Timeout time.Duration
}

// Workers returns the effective worker count for n jobs.
func (c Config) Workers(n int) int {
	w := c.Jobs
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every job and returns one result per job, in job order.
// Workers pull jobs from a shared queue, so completion order is arbitrary,
// but each worker writes only the result slot matching the job's index and
// Run returns only after every worker has joined — the caller observes a
// fully ordered, data-race-free slice.
func Run(cfg Config, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := cfg.Workers(len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runJob(jobs[i], cfg.Timeout)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// RunSerial runs jobs one at a time in submission order — the historical
// behavior of every driver, and the baseline the determinism regression
// test compares parallel runs against.
func RunSerial(jobs []Job) []Result {
	return Run(Config{Jobs: 1}, jobs)
}

// runJob executes one job, converting panics into Err and enforcing the
// per-job timeout. On timeout the job's goroutine keeps running until the
// simulation completes (simulations cannot be preempted mid-event); its
// late result is discarded via the buffered channel.
func runJob(job Job, timeout time.Duration) Result {
	if timeout <= 0 {
		return execute(job)
	}
	done := make(chan Result, 1)
	go func() {
		done <- execute(job)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r
	case <-timer.C:
		return Result{
			ID:       job.ID,
			Config:   job.Config,
			Err:      fmt.Sprintf("timed out after %v", timeout),
			TimedOut: true,
			WallMS:   float64(timeout) / float64(time.Millisecond),
		}
	}
}

// execute runs the job body with panic recovery and wall-clock accounting.
func execute(job Job) (res Result) {
	res = Result{ID: job.ID, Config: job.Config}
	start := time.Now()
	defer func() {
		res.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	out := job.Run()
	res.Metrics = out.Metrics
	res.Info = out.Info
	return res
}
