// Grid definitions: the macrobenchmark experiments expressed as sweep
// jobs, the single source of truth shared by the cmd drivers, the bench
// harness, and nisim benchdump. Each job runs one share-nothing simulation;
// the paired assembly helpers rebuild the figures' typed rows from the
// orchestrator's ordered results.
package macro

import (
	"fmt"

	"nisim/internal/machine"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/sweep"
	"nisim/internal/workload"
)

// BufName renders a flow-control buffer count, with netsim.Infinite as
// "inf" (the figures' black bar).
func BufName(b int) string {
	if b >= netsim.Infinite {
		return "inf"
	}
	return fmt.Sprintf("%d", b)
}

// ExecJob wraps one (NI, buffers, application) cell as a sweep job
// reporting the full machine metric map (stats.Machine.Metrics).
func ExecJob(experiment string, kind nic.Kind, bufs int, app workload.App, p workload.Params) sweep.Job {
	return sweep.Job{
		ID: fmt.Sprintf("%s/%s/bufs=%s/%s", experiment, kind.ShortName(), BufName(bufs), app),
		Config: map[string]string{
			"experiment": experiment, "ni": kind.ShortName(),
			"bufs": BufName(bufs), "app": string(app),
		},
		Run: func() sweep.Outcome {
			return sweep.Outcome{Metrics: Exec(kind, bufs, app, p).Metrics()}
		},
	}
}

// Figure1Jobs returns the Figure 1 grid: per application, the CM-5-like NI
// with one flow-control buffer (the figure's configuration) and with
// infinite buffering, in that order (Figure1Rows depends on the pairing).
func Figure1Jobs(p workload.Params) []sweep.Job {
	var jobs []sweep.Job
	for _, app := range workload.Apps() {
		jobs = append(jobs,
			ExecJob("fig1", nic.CM5, 1, app, p),
			ExecJob("fig1", nic.CM5, netsim.Infinite, app, p))
	}
	return jobs
}

// Figure1Rows reassembles Figure 1 rows from Figure1Jobs results: the
// buffering share is the one-buffer vs infinite-buffer differential, the
// transfer share is the bounce-free run's measured transfer work relative
// to the one-buffer execution time.
func Figure1Rows(results []sweep.Result) []Figure1Row {
	var rows []Figure1Row
	for i := 0; i+1 < len(results); i += 2 {
		one, inf := results[i], results[i+1]
		t1 := one.Metrics["exec_us"]
		if t1 <= 0 {
			continue
		}
		buffering := (t1 - inf.Metrics["exec_us"]) / t1
		if buffering < 0 {
			buffering = 0
		}
		rows = append(rows, Figure1Row{
			App:               workload.App(one.Config["app"]),
			TransferFraction:  inf.Metrics["transfer_total_us"] / (t1 * inf.Metrics["nodes"]),
			BufferingFraction: buffering,
		})
	}
	return rows
}

// NormGrid is a normalized-execution-time experiment: for each
// application, one baseline (BaseKind at BaseBufs) plus one cell per
// (kind, buffer) point, every cell normalized to its application's
// baseline.
type NormGrid struct {
	Name     string // experiment label for job IDs and the JSON report
	BaseKind nic.Kind
	BaseBufs int
	Kinds    []nic.Kind
	Bufs     []int
	Apps     []workload.App
	Params   workload.Params
}

// Fig3aGrid is Figure 3a: the three fifo-based NIs at each flow-control
// buffer level, normalized to the AP3000-like NI with eight buffers.
func Fig3aGrid(p workload.Params) NormGrid {
	return NormGrid{
		Name: "fig3a", BaseKind: nic.AP3000, BaseBufs: 8,
		Kinds: []nic.Kind{nic.CM5, nic.UDMA, nic.AP3000},
		Bufs:  BufferLevels, Apps: workload.Apps(), Params: p,
	}
}

// Fig3bGrid is Figure 3b: the four coherent NIs at eight buffers,
// normalized to the AP3000-like NI with eight buffers. (These NIs buffer
// in main memory, so they are insensitive to the flow-control buffer
// count.)
func Fig3bGrid(p workload.Params) NormGrid {
	return NormGrid{
		Name: "fig3b", BaseKind: nic.AP3000, BaseBufs: 8,
		Kinds: []nic.Kind{nic.MemoryChannel, nic.StarTJR, nic.CNI512Q, nic.CNI32Qm},
		Bufs:  []int{8}, Apps: workload.Apps(), Params: p,
	}
}

// Fig4Grid is Figure 4: the single-cycle NI_2w at each flow-control buffer
// level, normalized to CNI_32Q_m on the memory bus (whose main-memory
// buffering makes it independent of the level).
func Fig4Grid(p workload.Params) NormGrid {
	return NormGrid{
		Name: "fig4", BaseKind: nic.CNI32Qm, BaseBufs: 8,
		Kinds: []nic.Kind{nic.CM5SingleCycle},
		Bufs:  BufferLevels, Apps: workload.Apps(), Params: p,
	}
}

// Jobs returns the grid's cells in the deterministic order Cells expects:
// per application, the baseline first, then kinds × buffer levels.
func (g NormGrid) Jobs() []sweep.Job {
	var jobs []sweep.Job
	for _, app := range g.Apps {
		jobs = append(jobs, ExecJob(g.Name+"/base", g.BaseKind, g.BaseBufs, app, g.Params))
		for _, k := range g.Kinds {
			for _, b := range g.Bufs {
				jobs = append(jobs, ExecJob(g.Name, k, b, app, g.Params))
			}
		}
	}
	return jobs
}

// Cells normalizes the results of running Jobs() through the orchestrator
// into the figures' cells, in the same per-application order the serial
// code produced.
func (g NormGrid) Cells(results []sweep.Result) []Cell {
	var cells []Cell
	i := 0
	next := func() sweep.Result { r := results[i]; i++; return r }
	for range g.Apps {
		base := next().Metrics["exec_us"]
		for _, k := range g.Kinds {
			for _, b := range g.Bufs {
				r := next()
				exec := r.Metrics["exec_us"]
				cells = append(cells, Cell{
					Kind: k, Bufs: b, App: workload.App(r.Config["app"]),
					Normalized: exec / base,
					ExecUS:     exec,
				})
			}
		}
	}
	return cells
}

// Table4Jobs returns one job per macrobenchmark measuring the
// message-size distribution of a standard 16-node run on CNI_32Q_m.
func Table4Jobs(p workload.Params) []sweep.Job {
	var jobs []sweep.Job
	for _, app := range workload.Apps() {
		app := app
		jobs = append(jobs, sweep.Job{
			ID: fmt.Sprintf("table4/%s", app),
			Config: map[string]string{
				"experiment": "table4", "ni": nic.CNI32Qm.ShortName(),
				"bufs": "8", "app": string(app),
			},
			Run: func() sweep.Outcome {
				cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
				st := workload.Run(cfg, app, p)
				sizes := st.Total().Sizes()
				m := st.Metrics()
				m["hist_msgs"] = float64(sizes.Total())
				m["hist_mean_bytes"] = sizes.Mean()
				return sweep.Outcome{
					Metrics: m,
					Info:    map[string]string{"peaks": sizes.String()},
				}
			},
		})
	}
	return jobs
}

// ScaleFigure1Jobs returns the Figure 1 transfer/buffering pairs at large
// machine sizes for a representative application mix — the shared-memory
// kernels (appbt, barnes) plus the message-counting dsmc, which until the
// quiescence ledger went message-confined could not shard at all: per size
// and application, the CM-5-like NI with one flow-control buffer and with
// infinite buffering, in that order, so Figure1Rows reassembles the bars
// unchanged. Each cell's simulation is partitioned across shards engine
// shards. Shards is an execution strategy, not an experiment parameter —
// results are byte-identical at any value (the partition determinism
// regression pins it) — so it appears in neither the job IDs nor the
// config maps.
func ScaleFigure1Jobs(sizes []int, shards int, p workload.Params) []sweep.Job {
	var jobs []sweep.Job
	for _, nodes := range sizes {
		for _, app := range []workload.App{workload.Appbt, workload.Barnes, workload.Dsmc} {
			for _, bufs := range []int{1, netsim.Infinite} {
				nodes, app, bufs := nodes, app, bufs
				jobs = append(jobs, sweep.Job{
					ID: fmt.Sprintf("scalefig1/%s/nodes=%d/bufs=%s/%s",
						nic.CM5.ShortName(), nodes, BufName(bufs), app),
					Config: map[string]string{
						"experiment": "scalefig1", "ni": nic.CM5.ShortName(),
						"bufs": BufName(bufs), "nodes": fmt.Sprint(nodes), "app": string(app),
					},
					Run: func() sweep.Outcome {
						cfg := machine.DefaultConfig(nic.CM5, bufs)
						cfg.Nodes = nodes
						cfg.Shards = shards
						return sweep.Outcome{Metrics: workload.Run(cfg, app, p).Metrics()}
					},
				})
			}
		}
	}
	return jobs
}

// ScaleJobs returns the machine-size scaling grid: the application on a
// fifo NI and a coherent NI across machine sizes, eight flow-control
// buffers. shards partitions each cell's engine (every application
// shards; see Config.Shards).
func ScaleJobs(app workload.App, sizes []int, shards int, p workload.Params) []sweep.Job {
	var jobs []sweep.Job
	for _, nodes := range sizes {
		for _, kind := range []nic.Kind{nic.CM5, nic.CNI32Qm} {
			nodes, kind := nodes, kind
			jobs = append(jobs, sweep.Job{
				ID: fmt.Sprintf("scale/%s/nodes=%d/%s", kind.ShortName(), nodes, app),
				Config: map[string]string{
					"experiment": "scale", "ni": kind.ShortName(),
					"bufs": "8", "nodes": fmt.Sprint(nodes), "app": string(app),
				},
				Run: func() sweep.Outcome {
					cfg := machine.DefaultConfig(kind, 8)
					cfg.Nodes = nodes
					cfg.Shards = shards
					return sweep.Outcome{Metrics: workload.Run(cfg, app, p).Metrics()}
				},
			})
		}
	}
	return jobs
}
