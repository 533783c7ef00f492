package macro

import (
	"strings"
	"testing"

	"nisim/internal/sim"
	"nisim/internal/sweep"
	"nisim/internal/workload"
)

// runSerial runs jobs one at a time, failing the test on any job error.
func runSerial(t *testing.T, jobs []sweep.Job) []sweep.Result {
	t.Helper()
	results := sweep.RunSerial(jobs)
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.ID, r.Err)
		}
	}
	return results
}

// mechanismRows runs one study's rows of AblateMechanismJobs.
func mechanismRows(t *testing.T, study string) []Ablation {
	var jobs []sweep.Job
	for _, j := range AblateMechanismJobs(workload.Params{Iters: 0.3}) {
		if strings.HasPrefix(j.ID, "ablate/"+study+"/") {
			jobs = append(jobs, j)
		}
	}
	return AblationRows(runSerial(t, jobs))
}

func TestAblatePrefetchHelps(t *testing.T) {
	for _, a := range mechanismRows(t, "prefetch") {
		if a.Delta() < -0.01 {
			t.Errorf("%s: disabling prefetch improved %s by %.1f%%", a.Name, a.Metric, -100*a.Delta())
		}
	}
}

func TestAblateDeadSuppressHelps(t *testing.T) {
	for _, a := range mechanismRows(t, "deadsuppress") {
		if a.Delta() < -0.02 {
			t.Errorf("%s: disabling suppression improved %s by %.1f%%", a.Name, a.Metric, -100*a.Delta())
		}
	}
}

func TestAblateBypassTradesThroughputForNetwork(t *testing.T) {
	// Disabling the bypass turns the receive cache into a backpressure
	// throttle: point-to-point streaming gets faster (like the throttled
	// variant), which is exactly why the paper needed the bypass — without
	// it the network, not the sender, absorbs the stall. Assert the
	// direction so the trade-off stays visible.
	for _, a := range mechanismRows(t, "bypass") {
		if a.Metric == "4096B inv-bw us/KB" && a.Delta() > 0.05 {
			t.Errorf("bypass ablation lost its throughput trade-off: %+.1f%%", 100*a.Delta())
		}
	}
}

func TestAblateCacheSizeMonotone(t *testing.T) {
	blocks := []int{8, 32, 128}
	pts := CacheSizePoints(blocks, runSerial(t, CacheSizeJobs(blocks, workload.Params{Iters: 0.3})))
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Larger NI caches must not hurt latency or em3d (allow 3% noise).
	if pts[2].RttUS > pts[0].RttUS*1.03 {
		t.Errorf("128-block cache rtt %.2f worse than 8-block %.2f", pts[2].RttUS, pts[0].RttUS)
	}
	if pts[2].Em3dUS > pts[0].Em3dUS*1.03 {
		t.Errorf("128-block cache em3d %.0f worse than 8-block %.0f", pts[2].Em3dUS, pts[0].Em3dUS)
	}
}

func TestAblateUdmaThresholdPaperChoiceReasonable(t *testing.T) {
	ths := []int{0, 96}
	pts := ThresholdPoints(ths, runSerial(t, UdmaThresholdJobs(ths, workload.Params{Iters: 0.3})))
	if pts[1].DsmcUS > pts[0].DsmcUS*1.02 {
		t.Errorf("96B threshold (%.0f us) worse than always-DMA (%.0f us) on dsmc",
			pts[1].DsmcUS, pts[0].DsmcUS)
	}
}

func TestAblateIOBusDegradesMonotonically(t *testing.T) {
	bridges := []sim.Time{0, 250 * sim.Nanosecond, 1000 * sim.Nanosecond}
	pts := IOBusPoints(bridges, runSerial(t, IOBusJobs(bridges)))
	byKind := map[string][]IOBusPoint{}
	for _, p := range pts {
		byKind[p.Kind.ShortName()] = append(byKind[p.Kind.ShortName()], p)
	}
	for kind, ps := range byKind {
		for i := 1; i < len(ps); i++ {
			if ps[i].RttUS <= ps[i-1].RttUS {
				t.Errorf("%s: rtt not increasing with bridge latency", kind)
			}
			if ps[i].BwMBps >= ps[i-1].BwMBps {
				t.Errorf("%s: bandwidth not decreasing with bridge latency", kind)
			}
		}
		// The paper's motivation: I/O placement is a factor of 2-10 worse.
		slow, fast := ps[len(ps)-1], ps[0]
		ratio := slow.RttUS / fast.RttUS
		if ratio < 2 {
			t.Errorf("%s: 1us bridge only %.1fx worse; motivation claim lost", kind, ratio)
		}
	}
}
