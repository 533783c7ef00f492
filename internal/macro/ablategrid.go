package macro

import (
	"fmt"

	"nisim/internal/sim"
	"nisim/internal/sweep"
	"nisim/internal/workload"
)

// This file expresses the ablation studies as sweep jobs so nisim ablate and
// nisim benchdump can fan them out. Each job wraps one row function from
// ablate.go; the paired *Points/*Rows helpers rebuild the typed rows from
// the orchestrator's ordered results.

// ablationJob wraps one on/off comparison as a sweep job.
func ablationJob(study string, row func() Ablation) sweep.Job {
	return sweep.Job{
		ID:     "ablate/" + study,
		Config: map[string]string{"experiment": "ablate", "study": study},
		Run: func() sweep.Outcome {
			a := row()
			return sweep.Outcome{
				Metrics: map[string]float64{"enabled": a.Enabled, "disabled": a.Disabled},
				Info:    map[string]string{"name": a.Name, "metric": a.Metric},
			}
		},
	}
}

// AblateMechanismJobs returns the on/off ablation rows (send prefetch,
// receive-cache bypass, dead-message suppression) in nisim ablate's print
// order.
func AblateMechanismJobs(p workload.Params) []sweep.Job {
	jobs := make([]sweep.Job, 0, len(prefetchKinds)+4)
	for _, kind := range prefetchKinds {
		kind := kind
		jobs = append(jobs, ablationJob("prefetch/"+kind.ShortName(),
			func() Ablation { return prefetchRow(kind) }))
	}
	return append(jobs,
		ablationJob("bypass/em3d", func() Ablation { return bypassExecRow(p) }),
		ablationJob("bypass/invbw", bypassBwRow),
		ablationJob("deadsuppress/spsolve", func() Ablation { return deadSuppressExecRow(p) }),
		ablationJob("deadsuppress/invbw", deadSuppressBwRow),
	)
}

// AblationRows rebuilds Ablation rows from AblateMechanismJobs results.
func AblationRows(results []sweep.Result) []Ablation {
	rows := make([]Ablation, 0, len(results))
	for _, r := range results {
		rows = append(rows, Ablation{
			Name:     r.Info["name"],
			Metric:   r.Info["metric"],
			Enabled:  r.Metrics["enabled"],
			Disabled: r.Metrics["disabled"],
		})
	}
	return rows
}

// CacheSizeJobs returns one job per CNI_32Q_m NI-cache capacity sample.
func CacheSizeJobs(blocks []int, p workload.Params) []sweep.Job {
	jobs := make([]sweep.Job, 0, len(blocks))
	for _, b := range blocks {
		b := b
		jobs = append(jobs, sweep.Job{
			ID: fmt.Sprintf("ablate/cachesize/%d", b),
			Config: map[string]string{
				"experiment": "ablate", "study": "cachesize", "blocks": fmt.Sprint(b),
			},
			Run: func() sweep.Outcome {
				pt := cacheSizePoint(b, p)
				return sweep.Outcome{Metrics: map[string]float64{
					"rtt_us": pt.RttUS, "bw_mbps": pt.BwMBps, "em3d_us": pt.Em3dUS,
				}}
			},
		})
	}
	return jobs
}

// CacheSizePoints rebuilds the capacity sweep from CacheSizeJobs results;
// blocks must be the slice the jobs were built from.
func CacheSizePoints(blocks []int, results []sweep.Result) []CacheSizePoint {
	out := make([]CacheSizePoint, 0, len(blocks))
	for i, b := range blocks {
		m := results[i].Metrics
		out = append(out, CacheSizePoint{
			Blocks: b, RttUS: m["rtt_us"], BwMBps: m["bw_mbps"], Em3dUS: m["em3d_us"],
		})
	}
	return out
}

// UdmaThresholdJobs returns one job per UDMA fallback-threshold sample.
func UdmaThresholdJobs(thresholds []int, p workload.Params) []sweep.Job {
	jobs := make([]sweep.Job, 0, len(thresholds))
	for _, th := range thresholds {
		th := th
		jobs = append(jobs, sweep.Job{
			ID: fmt.Sprintf("ablate/udmathreshold/%d", th),
			Config: map[string]string{
				"experiment": "ablate", "study": "udmathreshold", "bytes": fmt.Sprint(th),
			},
			Run: func() sweep.Outcome {
				pt := thresholdPoint(th, p)
				return sweep.Outcome{Metrics: map[string]float64{"dsmc_us": pt.DsmcUS}}
			},
		})
	}
	return jobs
}

// ThresholdPoints rebuilds the threshold sweep from UdmaThresholdJobs
// results; thresholds must be the slice the jobs were built from.
func ThresholdPoints(thresholds []int, results []sweep.Result) []ThresholdPoint {
	out := make([]ThresholdPoint, 0, len(thresholds))
	for i, th := range thresholds {
		out = append(out, ThresholdPoint{Bytes: th, DsmcUS: results[i].Metrics["dsmc_us"]})
	}
	return out
}

// IOBusJobs returns the NI-placement grid: each fifo NI behind each I/O-bus
// bridge latency, kinds outer.
func IOBusJobs(bridges []sim.Time) []sweep.Job {
	var jobs []sweep.Job
	for _, kind := range ioBusKinds {
		for _, br := range bridges {
			kind, br := kind, br
			jobs = append(jobs, sweep.Job{
				ID: fmt.Sprintf("ablate/iobus/%s/%s", kind.ShortName(), br),
				Config: map[string]string{
					"experiment": "ablate", "study": "iobus",
					"ni": kind.ShortName(), "bridge": br.String(),
				},
				Run: func() sweep.Outcome {
					pt := ioBusPoint(kind, br)
					return sweep.Outcome{Metrics: map[string]float64{
						"rtt_us": pt.RttUS, "bw_mbps": pt.BwMBps,
					}}
				},
			})
		}
	}
	return jobs
}

// IOBusPoints rebuilds the placement grid from IOBusJobs results; bridges
// must be the slice the jobs were built from.
func IOBusPoints(bridges []sim.Time, results []sweep.Result) []IOBusPoint {
	var out []IOBusPoint
	i := 0
	for _, kind := range ioBusKinds {
		for _, br := range bridges {
			m := results[i].Metrics
			i++
			out = append(out, IOBusPoint{
				Kind: kind, Bridge: br, RttUS: m["rtt_us"], BwMBps: m["bw_mbps"],
			})
		}
	}
	return out
}
