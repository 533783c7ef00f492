package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"nisim/internal/sim"
)

// gridOf builds n jobs whose metric encodes their index, with later jobs
// finishing sooner than earlier ones so parallel completion order inverts
// submission order.
func gridOf(n int, stagger time.Duration) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			ID:     fmt.Sprintf("job/%d", i),
			Config: map[string]string{"index": fmt.Sprint(i)},
			Run: func() Outcome {
				if stagger > 0 {
					time.Sleep(time.Duration(n-i) * stagger)
				}
				return Outcome{Metrics: map[string]float64{"value": float64(i)}}
			},
		}
	}
	return jobs
}

func TestResultsCollectedInSubmissionOrder(t *testing.T) {
	jobs := gridOf(16, 2*time.Millisecond)
	for _, workers := range []int{1, 4, 16} {
		results := Run(Config{Jobs: workers}, jobs)
		if len(results) != len(jobs) {
			t.Fatalf("jobs=%d: got %d results, want %d", workers, len(results), len(jobs))
		}
		for i, r := range results {
			if r.ID != jobs[i].ID || r.Metrics["value"] != float64(i) {
				t.Errorf("jobs=%d: slot %d holds %q value %v, want %q value %d",
					workers, i, r.ID, r.Metrics["value"], jobs[i].ID, i)
			}
			if r.Err != "" {
				t.Errorf("jobs=%d: slot %d unexpected error %q", workers, i, r.Err)
			}
		}
	}
}

func TestSerialMatchesParallel(t *testing.T) {
	jobs := gridOf(12, time.Millisecond)
	serial := RunSerial(jobs)
	parallel := Run(Config{Jobs: 8}, gridOf(12, time.Millisecond))
	for i := range serial {
		if serial[i].ID != parallel[i].ID || serial[i].Metrics["value"] != parallel[i].Metrics["value"] {
			t.Fatalf("slot %d differs: serial %+v parallel %+v", i, serial[i], parallel[i])
		}
	}
}

func TestPanicBecomesError(t *testing.T) {
	jobs := []Job{
		{ID: "ok", Run: func() Outcome { return Outcome{Metrics: map[string]float64{"v": 1}} }},
		{ID: "boom", Run: func() Outcome { panic("deadline missed") }},
		{ID: "also-ok", Run: func() Outcome { return Outcome{Metrics: map[string]float64{"v": 3}} }},
	}
	results := Run(Config{Jobs: 2}, jobs)
	if results[1].Err == "" || !strings.Contains(results[1].Err, "deadline missed") {
		t.Fatalf("panic not captured: %+v", results[1])
	}
	if results[0].Err != "" || results[2].Err != "" {
		t.Fatalf("panic leaked into sibling jobs: %+v %+v", results[0], results[2])
	}
}

// TestProcessPanicBecomesError runs a simulation whose process panics: the
// panic reaches the job's own goroutine through Engine.Run, so it becomes
// that job's Err instead of crashing the binary.
func TestProcessPanicBecomesError(t *testing.T) {
	jobs := []Job{
		{ID: "crash", Run: func() Outcome {
			e := sim.NewEngine()
			e.Spawn("crasher", func(p *sim.Process) {
				p.Sleep(sim.Nanosecond)
				panic("process fault")
			})
			defer e.Drain()
			e.Run()
			return Outcome{Metrics: map[string]float64{"v": 1}}
		}},
		{ID: "ok", Run: func() Outcome { return Outcome{Metrics: map[string]float64{"v": 2}} }},
	}
	results := Run(Config{Jobs: 2}, jobs)
	if results[0].Err != "panic: process fault" {
		t.Fatalf("process panic not captured: %+v", results[0])
	}
	if results[1].Err != "" || results[1].Metrics["v"] != 2 {
		t.Fatalf("process panic leaked into sibling job: %+v", results[1])
	}
}

func TestPerJobTimeout(t *testing.T) {
	jobs := []Job{
		{ID: "fast", Run: func() Outcome { return Outcome{Metrics: map[string]float64{"v": 1}} }},
		{ID: "slow", Run: func() Outcome {
			time.Sleep(2 * time.Second)
			return Outcome{Metrics: map[string]float64{"v": 2}}
		}},
	}
	results := Run(Config{Jobs: 2, Timeout: 30 * time.Millisecond}, jobs)
	if results[0].TimedOut || results[0].Err != "" {
		t.Fatalf("fast job should not time out: %+v", results[0])
	}
	if !results[1].TimedOut || !strings.Contains(results[1].Err, "timed out") {
		t.Fatalf("slow job should time out: %+v", results[1])
	}
}

func TestWorkersClamping(t *testing.T) {
	for _, tc := range []struct{ jobs, n, want int }{
		{1, 100, 1},
		{4, 2, 2},
		{-3, 5, 1}, // negative means NumCPU, clamped to at least 1
	} {
		got := Config{Jobs: tc.jobs}.Workers(tc.n)
		if tc.jobs > 0 && got != tc.want {
			t.Errorf("Workers(jobs=%d, n=%d) = %d, want %d", tc.jobs, tc.n, got, tc.want)
		}
		if got < 1 || got > max(tc.n, 1) {
			t.Errorf("Workers(jobs=%d, n=%d) = %d out of range", tc.jobs, tc.n, got)
		}
	}
}

// TestCanonicalReportIsWorkerCountInvariant is the schema-level half of
// the determinism guarantee: two reports for the same grid that differ
// only in worker count and wall-clock timings serialize to identical
// canonical bytes.
func TestCanonicalReportIsWorkerCountInvariant(t *testing.T) {
	mk := func(workers int, wall float64) *Report {
		results := []Result{
			{ID: "a", Config: map[string]string{"ni": "CM-5"}, Metrics: map[string]float64{"rtt_us": 3.25}, WallMS: wall},
			{ID: "b", Metrics: map[string]float64{"bw_mbps": 141}, WallMS: wall * 2},
		}
		return NewReport("table5", 0, Config{Jobs: workers}, results, wall*3)
	}
	serial, err1 := mk(1, 10.5).Canonical().MarshalIndentJSON()
	parallel, err2 := mk(8, 99.25).Canonical().MarshalIndentJSON()
	if err1 != nil || err2 != nil {
		t.Fatalf("marshal: %v %v", err1, err2)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("canonical reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	full, err := mk(8, 1).MarshalIndentJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Contains(full, []byte(`"timing"`)) {
		t.Fatalf("full report lost its timing sidecar:\n%s", full)
	}
	if bytes.Contains(serial, []byte(`"timing"`)) {
		t.Fatalf("canonical report retains timing sidecar:\n%s", serial)
	}
}
