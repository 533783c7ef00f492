// Benchmarks regenerating every table and figure of the paper's evaluation
// section. The grids come from the same sweep-job definitions the cmd
// drivers and nisim benchdump submit (internal/micro, internal/macro), so a
// benchmark cell and a driver cell are the same simulation; each benchmark
// runs its cells serially under the testing harness and reports the
// paper's metric through b.ReportMetric:
//
//	BenchmarkTable5Latency    round-trip microseconds per NI and payload
//	BenchmarkTable5Bandwidth  MB/s per NI and payload
//	BenchmarkFigure1          transfer%% and buffering%% per application
//	BenchmarkFigure3a         normalized execution time, fifo NIs × buffers
//	BenchmarkFigure3b         normalized execution time, coherent NIs
//	BenchmarkFigure4          normalized execution time, single-cycle NI_2w
//	BenchmarkTable4           measured mean message size per application
//
// Absolute numbers depend on this reproduction's synthetic workloads; the
// comparisons (who wins, by what factor, where the crossovers fall) are the
// reproduction targets, recorded against the paper in EXPERIMENTS.md.
// `make bench-json` (nisim benchdump) emits the same grids as one
// machine-readable report instead.
package nisim

import (
	"fmt"
	"testing"

	"nisim/internal/macro"
	"nisim/internal/micro"
	"nisim/internal/nic"
	"nisim/internal/sim"
	"nisim/internal/sweep"
	"nisim/internal/workload"
)

// benchScale keeps macrobenchmark runs short under `go test -bench`.
var benchScale = workload.Params{Iters: 0.3}

func BenchmarkTable5Latency(b *testing.B) {
	spec := micro.StandardSpec(true)
	for _, job := range spec.Jobs() {
		job := job
		if job.Config["metric"] != "latency" {
			continue
		}
		b.Run(fmt.Sprintf("%s/%sB", job.Config["ni"], job.Config["payload"]), func(b *testing.B) {
			var out sweep.Outcome
			for i := 0; i < b.N; i++ {
				out = job.Run()
			}
			b.ReportMetric(out.Metrics["rtt_us"], "us/rtt")
		})
	}
}

func BenchmarkTable5Bandwidth(b *testing.B) {
	spec := micro.StandardSpec(true)
	for _, job := range spec.Jobs() {
		job := job
		if job.Config["metric"] != "bandwidth" {
			continue
		}
		b.Run(fmt.Sprintf("%s/%sB", job.Config["ni"], job.Config["payload"]), func(b *testing.B) {
			var out sweep.Outcome
			for i := 0; i < b.N; i++ {
				out = job.Run()
			}
			b.ReportMetric(out.Metrics["bw_mbps"], "MB/s")
		})
	}
}

func BenchmarkFigure1(b *testing.B) {
	jobs := macro.Figure1Jobs(benchScale)
	for i := 0; i+1 < len(jobs); i += 2 {
		pair := jobs[i : i+2]
		b.Run(pair[0].Config["app"], func(b *testing.B) {
			var row macro.Figure1Row
			for i := 0; i < b.N; i++ {
				row = macro.Figure1Rows(sweep.RunSerial(pair))[0]
			}
			b.ReportMetric(100*row.TransferFraction, "%transfer")
			b.ReportMetric(100*row.BufferingFraction, "%buffering")
		})
	}
}

// benchNormGrid runs each of a NormGrid's cells as a subbenchmark: per
// iteration, the application's baseline plus the cell, reporting the ratio.
func benchNormGrid(b *testing.B, g macro.NormGrid, name func(c macro.Cell) string, unit string) {
	jobs := g.Jobs()
	// One baseline + len(Kinds)*len(Bufs) cells per application, in Jobs order.
	perApp := 1 + len(g.Kinds)*len(g.Bufs)
	for a := range g.Apps {
		base := jobs[a*perApp]
		for j := 1; j < perApp; j++ {
			pair := []sweep.Job{base, jobs[a*perApp+j]}
			b.Run(nameOfCell(g, a, j-1, name), func(b *testing.B) {
				var norm float64
				for i := 0; i < b.N; i++ {
					results := sweep.RunSerial(pair)
					norm = results[1].Metrics["exec_us"] / results[0].Metrics["exec_us"]
				}
				b.ReportMetric(norm, unit)
			})
		}
	}
}

func nameOfCell(g macro.NormGrid, appIdx, cellIdx int, name func(c macro.Cell) string) string {
	kind := g.Kinds[cellIdx/len(g.Bufs)]
	bufs := g.Bufs[cellIdx%len(g.Bufs)]
	return name(macro.Cell{Kind: kind, Bufs: bufs, App: g.Apps[appIdx]})
}

func BenchmarkFigure3a(b *testing.B) {
	benchNormGrid(b, macro.Fig3aGrid(benchScale), func(c macro.Cell) string {
		return fmt.Sprintf("%s/bufs=%s/%s", c.Kind.ShortName(), macro.BufName(c.Bufs), c.App)
	}, "x-vs-ap3000@8")
}

func BenchmarkFigure3b(b *testing.B) {
	benchNormGrid(b, macro.Fig3bGrid(benchScale), func(c macro.Cell) string {
		return fmt.Sprintf("%s/%s", c.Kind.ShortName(), c.App)
	}, "x-vs-ap3000@8")
}

func BenchmarkFigure4(b *testing.B) {
	benchNormGrid(b, macro.Fig4Grid(benchScale), func(c macro.Cell) string {
		return fmt.Sprintf("bufs=%s/%s", macro.BufName(c.Bufs), c.App)
	}, "x-vs-cni32qm")
}

func BenchmarkTable4(b *testing.B) {
	for _, job := range macro.Table4Jobs(benchScale) {
		job := job
		b.Run(job.Config["app"], func(b *testing.B) {
			var out sweep.Outcome
			for i := 0; i < b.N; i++ {
				out = job.Run()
			}
			b.ReportMetric(out.Metrics["hist_mean_bytes"], "B/msg")
			b.ReportMetric(out.Metrics["hist_msgs"], "msgs")
		})
	}
}

// BenchmarkEngineTyped measures the raw discrete-event core: how many
// scheduled events the simulator retires per second, each a typed event on
// a pooled record.
func BenchmarkEngineTyped(b *testing.B) {
	e := sim.NewEngine()
	type state struct{ n int }
	s := &state{}
	var tick sim.Handler
	tick = func(recv any, _ uint64) {
		st := recv.(*state)
		st.n++
		if st.n < b.N {
			e.AfterEvent(sim.Nanosecond, tick, st, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.AfterEvent(sim.Nanosecond, tick, s, 0)
	e.Run()
}

// BenchmarkPingPong measures end-to-end simulator throughput on the full
// stack: one complete simulated round trip per iteration.
func BenchmarkPingPong(b *testing.B) {
	for _, kind := range []nic.Kind{nic.CM5, nic.CNI32Qm} {
		kind := kind
		b.Run(kind.ShortName(), func(b *testing.B) {
			micro.RoundTrip(kind, 8, 8, 1, b.N)
		})
	}
}

// BenchmarkAblations reports the design-choice ablation deltas (DESIGN.md):
// what each mechanism of the winning designs buys.
func BenchmarkAblations(b *testing.B) {
	mech := macro.AblateMechanismJobs(benchScale)
	b.Run("prefetch", func(b *testing.B) {
		var rows []macro.Ablation
		for i := 0; i < b.N; i++ {
			rows = macro.AblationRows(sweep.RunSerial(mech[:2]))
		}
		for _, a := range rows {
			b.ReportMetric(100*a.Delta(), "%cost-"+a.Name[:7])
		}
	})
	b.Run("dead-suppress", func(b *testing.B) {
		var rows []macro.Ablation
		for i := 0; i < b.N; i++ {
			rows = macro.AblationRows(sweep.RunSerial(mech[len(mech)-2:]))
		}
		b.ReportMetric(100*rows[0].Delta(), "%cost")
	})
	b.Run("iobus", func(b *testing.B) {
		bridges := []sim.Time{0, 250 * sim.Nanosecond}
		jobs := macro.IOBusJobs(bridges)
		var pts []macro.IOBusPoint
		for i := 0; i < b.N; i++ {
			pts = macro.IOBusPoints(bridges, sweep.RunSerial(jobs))
		}
		b.ReportMetric(pts[1].RttUS/pts[0].RttUS, "x-slowdown")
	})
}

// BenchmarkLogP reports the measured LogP decomposition per NI.
func BenchmarkLogP(b *testing.B) {
	picked := map[string]bool{
		nic.CM5.ShortName(): true, nic.AP3000.ShortName(): true, nic.CNI32Qm.ShortName(): true,
	}
	for _, job := range micro.LogPJobs(64) {
		job := job
		if !picked[job.Config["ni"]] {
			continue
		}
		b.Run(job.Config["ni"], func(b *testing.B) {
			var out sweep.Outcome
			for i := 0; i < b.N; i++ {
				out = job.Run()
			}
			b.ReportMetric(out.Metrics["o_send_ns"], "o_send-ns")
			b.ReportMetric(out.Metrics["o_recv_ns"], "o_recv-ns")
			b.ReportMetric(out.Metrics["gap_ns"], "gap-ns")
		})
	}
}
