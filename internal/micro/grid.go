// Grid definitions: the microbenchmark experiments expressed as sweep
// jobs, the single source of truth shared by the cmd drivers, the bench
// harness, and nisim benchdump. Each job is one independent simulation; the
// paired assembly helpers rebuild the typed rows from the orchestrator's
// ordered results.
package micro

import (
	"fmt"
	"strings"

	"nisim/internal/nic"
	"nisim/internal/sweep"
)

// Table5Spec parameterizes a Table 5 grid: which NIs, which payload
// columns, and the iteration counts. StandardSpec reproduces the paper's
// table; reduced specs drive the bench harness and the determinism
// regression test.
type Table5Spec struct {
	Kinds       []nic.Kind
	LatPayloads []int
	BwPayloads  []int
	// Warmup and Rounds control the latency microbenchmark; Msgs is the
	// bandwidth message count (quartered at >= 4096 B payloads, as the
	// serial code always did).
	Warmup, Rounds, Msgs int
}

// StandardSpec returns the paper's full Table 5 grid (seven NIs plus the
// throttled CNI_32Q_m, which has no latency column).
func StandardSpec(quick bool) Table5Spec {
	s := Table5Spec{
		Kinds:       append(nic.PaperSeven(), nic.CNI32QmThrottle),
		LatPayloads: LatencyPayloads,
		BwPayloads:  BandwidthPayloads,
		// Warmup must be long enough that the CNI queue rings wrap, so the
		// compose path runs in its steady (cache-warm) state.
		Warmup: 600, Rounds: 100, Msgs: 400,
	}
	if quick {
		s.Warmup, s.Rounds, s.Msgs = 550, 30, 150
	}
	return s
}

// Jobs returns one sweep job per Table 5 cell — latency cells first, then
// bandwidth cells, per NI — in the deterministic order Rows expects.
func (s Table5Spec) Jobs() []sweep.Job {
	var jobs []sweep.Job
	for _, k := range s.Kinds {
		k := k
		if k != nic.CNI32QmThrottle {
			for _, p := range s.LatPayloads {
				p := p
				jobs = append(jobs, sweep.Job{
					ID: fmt.Sprintf("lat/%s/%dB", k.ShortName(), p),
					Config: map[string]string{
						"experiment": "table5", "metric": "latency",
						"ni": k.ShortName(), "bufs": "8", "payload": fmt.Sprint(p),
					},
					Run: func() sweep.Outcome {
						us := RoundTrip(k, 8, p, s.Warmup, s.Rounds).Microseconds()
						return sweep.Outcome{Metrics: map[string]float64{"rtt_us": us}}
					},
				})
			}
		}
		for _, p := range s.BwPayloads {
			p := p
			count := s.Msgs
			if p >= 4096 {
				count = s.Msgs / 4
			}
			jobs = append(jobs, sweep.Job{
				ID: fmt.Sprintf("bw/%s/%dB", k.ShortName(), p),
				Config: map[string]string{
					"experiment": "table5", "metric": "bandwidth",
					"ni": k.ShortName(), "bufs": "8", "payload": fmt.Sprint(p),
				},
				Run: func() sweep.Outcome {
					mb := Bandwidth(k, 8, p, count)
					return sweep.Outcome{Metrics: map[string]float64{"bw_mbps": mb}}
				},
			})
		}
	}
	return jobs
}

// Rows reassembles Table5Row records from the results of running Jobs()
// through the orchestrator. Results must be in job order (which sweep.Run
// guarantees).
func (s Table5Spec) Rows(results []sweep.Result) []Table5Row {
	rows := make([]Table5Row, 0, len(s.Kinds))
	i := 0
	next := func() sweep.Result { r := results[i]; i++; return r }
	for _, k := range s.Kinds {
		row := Table5Row{Kind: k, LatencyUS: map[int]float64{}, BandwidthMB: map[int]float64{}}
		if k != nic.CNI32QmThrottle {
			for _, p := range s.LatPayloads {
				row.LatencyUS[p] = next().Metrics["rtt_us"]
			}
		}
		for _, p := range s.BwPayloads {
			row.BandwidthMB[p] = next().Metrics["bw_mbps"]
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable5 renders Table 5 rows exactly as nisim table5 prints them, so
// drivers and the determinism regression test share one rendering.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 5: round-trip latency (us) and bandwidth (MB/s), flow control buffers = 8")
	fmt.Fprintf(&b, "%-28s %7s %7s %7s | %5s %5s %5s %5s\n", "NI", "8B", "64B", "256B", "8B", "64B", "256B", "4096B")
	for _, r := range rows {
		lat := func(p int) string {
			if v, ok := r.LatencyUS[p]; ok && v > 0 {
				return fmt.Sprintf("%7.2f", v)
			}
			return fmt.Sprintf("%7s", "n/a")
		}
		fmt.Fprintf(&b, "%-28s %s %s %s | %5.0f %5.0f %5.0f %5.0f\n",
			r.Kind, lat(8), lat(64), lat(256),
			r.BandwidthMB[8], r.BandwidthMB[64], r.BandwidthMB[256], r.BandwidthMB[4096])
	}
	return b.String()
}

// LogPJobs returns one job per NI measuring the LogP-style decomposition
// at the given payload, with the four terms in nanoseconds as metrics.
func LogPJobs(payload int) []sweep.Job {
	var jobs []sweep.Job
	for _, k := range nic.PaperSeven() {
		k := k
		jobs = append(jobs, sweep.Job{
			ID: fmt.Sprintf("logp/%s/%dB", k.ShortName(), payload),
			Config: map[string]string{
				"experiment": "logp", "ni": k.ShortName(), "payload": fmt.Sprint(payload),
			},
			Run: func() sweep.Outcome {
				lp := LogPOf(k, payload)
				return sweep.Outcome{Metrics: map[string]float64{
					"L_ns":      lp.L.Nanoseconds(),
					"o_send_ns": lp.Os.Nanoseconds(),
					"o_recv_ns": lp.Or.Nanoseconds(),
					"gap_ns":    lp.G.Nanoseconds(),
				}}
			},
		})
	}
	return jobs
}
