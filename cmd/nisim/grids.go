package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"nisim/internal/chaos"
	"nisim/internal/designspace"
	"nisim/internal/faults"
	"nisim/internal/machine"
	"nisim/internal/macro"
	"nisim/internal/micro"
	"nisim/internal/msglayer"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/report"
	"nisim/internal/sim"
	"nisim/internal/sweep"
	"nisim/internal/workload"
)

// A plan is one parsed grid invocation: the experiment's seed (0 means the
// workloads' built-in fixed seeds), the cells to sweep, and how to render
// their results as text.
type plan struct {
	seed   uint64
	jobs   []sweep.Job
	render func([]sweep.Result) string
	// strict fails the run when any cell errs or times out.
	strict bool
}

// A grid is one experiment `nisim <name>` sweeps; name is also the
// report's experiment field. setup registers the grid's own flags on fs and
// returns the builder that, once fs is parsed, turns them into a plan; a
// bad flag value is the builder's error.
type grid struct {
	name, doc string
	setup     func(fs *flag.FlagSet) func() (plan, error)
}

// grids is the registry, in -list order.
var grids = []grid{
	{"table1", "Table 1: buffering in commercial switches (catalog)", table1},
	{"table2", "Table 2: classification of the seven NIs (catalog)", table2},
	{"table4", "Table 4: message-size distributions of the macrobenchmarks", table4},
	{"table5", "Table 5: round-trip latency and bandwidth of every NI", table5},
	{"fig1", "Figure 1: share of execution time in data transfer and buffering", fig1},
	{"fig3", "Figure 3: fifo and coherent NIs normalized to AP3000 @ 8 buffers", fig3},
	{"fig4", "Figure 4: single-cycle NI_2w vs CNI_32Qm", fig4},
	{"logp", "LogP-style characterization of every NI (paper §6.1)", logp},
	{"ablate", "ablations: mechanisms, NI cache size, UDMA threshold, I/O bus", ablate},
	{"designspace", "every engine x buffering composition through Table 5", designspaceGrid},
	{"chaos", "named designs past saturation under faults, eager vs rendezvous", chaosGrid},
	{"faultsweep", "reliable delivery under injected network faults", faultsweep},
	{"scale", "one application on 4 to 32 nodes", scale},
	{"scalebig", "Figure 1 pairs and open-loop overload at -sizes, sharded", scalebig},
	{"benchdump", "the whole evaluation grid as one report", benchdump},
}

// itersFlag registers -scale, the workloads' iteration scale factor.
func itersFlag(fs *flag.FlagSet, def float64) func() workload.Params {
	scale := fs.Float64("scale", def, "iteration scale factor")
	return func() workload.Params { return workload.Params{Iters: *scale} }
}

// table1 is the paper's Table 1: the small buffering commercial switches
// provide, the reason NIs cannot lean on the network for buffering. The
// rows are catalog lookups, not simulations.
func table1(*flag.FlagSet) func() (plan, error) {
	return func() (plan, error) {
		var jobs []sweep.Job
		for _, row := range netsim.SwitchBufferTable() {
			jobs = append(jobs, sweep.Job{
				ID:     "table1/" + row.Name,
				Config: map[string]string{"experiment": "table1", "switch": row.Name},
				Run: func() sweep.Outcome {
					return sweep.Outcome{Info: map[string]string{"buffering": row.Buffering}}
				},
			})
		}
		return plan{jobs: jobs, render: func(results []sweep.Result) string {
			t := report.NewTable("switch/router", "maximum buffering")
			for _, r := range results {
				t.Row(r.Config["switch"], r.Info["buffering"])
			}
			return "Table 1: buffering between an input and output port in commercial switches\n" + t.String()
		}}, nil
	}
}

// table2 is the paper's Table 2: the seven NIs classified by their data
// transfer and buffering parameters, as encoded in the NI catalog.
func table2(*flag.FlagSet) func() (plan, error) {
	return func() (plan, error) {
		var jobs []sweep.Job
		for _, e := range nic.Catalog() {
			jobs = append(jobs, sweep.Job{
				ID:     "table2/" + e.Notation,
				Config: map[string]string{"experiment": "table2", "ni": e.Notation},
				Run: func() sweep.Outcome {
					inv := "No"
					if e.ProcInvolve {
						inv = "Yes"
					}
					return sweep.Outcome{Info: map[string]string{
						"description": e.Description,
						"send_size":   e.SendSize, "send_mgr": e.SendManager, "send_source": e.SendSource,
						"recv_size": e.RecvSize, "recv_mgr": e.RecvManager, "recv_dest": e.RecvDest,
						"buf_location": e.BufLocation, "proc_involved": inv,
					}}
				},
			})
		}
		return plan{jobs: jobs, render: func(results []sweep.Result) string {
			t := report.NewTable("NI", "Description",
				"Send size", "Send mgr", "Send source",
				"Recv size", "Recv mgr", "Recv dest",
				"Buf location", "Proc involved?")
			for _, r := range results {
				t.Row(r.Config["ni"], r.Info["description"],
					r.Info["send_size"], r.Info["send_mgr"], r.Info["send_source"],
					r.Info["recv_size"], r.Info["recv_mgr"], r.Info["recv_dest"],
					r.Info["buf_location"], r.Info["proc_involved"])
			}
			return "Table 2: classification of the seven memory bus NIs\n" + t.String()
		}}, nil
	}
}

// table4 is the paper's Table 4: each macrobenchmark's measured
// message-size distribution on a standard 16-node run.
func table4(fs *flag.FlagSet) func() (plan, error) {
	p := itersFlag(fs, 1)
	return func() (plan, error) {
		return plan{jobs: macro.Table4Jobs(p()), render: func(results []sweep.Result) string {
			t := report.NewTable("benchmark", "messages", "avg size", "peaks (size:share)")
			for _, r := range results {
				t.Row(r.Config["app"],
					fmt.Sprintf("%.0f", r.Metrics["hist_msgs"]),
					fmt.Sprintf("%.0fB", r.Metrics["hist_mean_bytes"]),
					r.Info["peaks"])
			}
			return "Table 4: measured message-size distributions (16 nodes)\n" + t.String()
		}}, nil
	}
}

// table5 is the paper's Table 5: process-to-process round-trip latency and
// bandwidth for the seven NIs plus the throttled CNI_32Q_m, eight
// flow-control buffers.
func table5(fs *flag.FlagSet) func() (plan, error) {
	quick := fs.Bool("quick", false, "fewer iterations")
	return func() (plan, error) {
		spec := micro.StandardSpec(*quick)
		return plan{jobs: spec.Jobs(), render: func(results []sweep.Result) string {
			return micro.FormatTable5(spec.Rows(results))
		}}, nil
	}
}

// fig1 is the paper's Figure 1: the share of execution time the seven
// macrobenchmarks spend on NI data transfer and buffering, CM-5-like NI,
// one flow-control buffer.
func fig1(fs *flag.FlagSet) func() (plan, error) {
	p := itersFlag(fs, 1)
	return func() (plan, error) {
		return plan{jobs: macro.Figure1Jobs(p()), render: func(results []sweep.Result) string {
			var b strings.Builder
			b.WriteString("Figure 1: share of execution time (CM-5-like NI, flow control buffers = 1)\n")
			fmt.Fprintf(&b, "%-14s %10s %10s %10s\n", "app", "transfer", "buffering", "rest")
			for _, r := range macro.Figure1Rows(results) {
				fmt.Fprintf(&b, "%-14s %9.1f%% %9.1f%% %9.1f%%\n",
					r.App, 100*r.TransferFraction, 100*r.BufferingFraction,
					100*(1-r.TransferFraction-r.BufferingFraction))
			}
			return b.String()
		}}, nil
	}
}

// fig3 is the paper's Figure 3: (a) the three fifo NIs at 1/2/8/infinite
// flow-control buffers and (b) the four coherent NIs at 8, all normalized
// to the AP3000-like NI at 8 buffers.
func fig3(fs *flag.FlagSet) func() (plan, error) {
	p := itersFlag(fs, 1)
	return func() (plan, error) {
		ga, gb := macro.Fig3aGrid(p()), macro.Fig3bGrid(p())
		jobsA := ga.Jobs()
		return plan{jobs: append(jobsA, gb.Jobs()...), render: func(results []sweep.Result) string {
			var b strings.Builder
			b.WriteString("Figure 3a: fifo NIs, execution time normalized to AP3000-like @ 8 buffers\n")
			writeNormGrid(&b, ga, ga.Cells(results[:len(jobsA)]))
			b.WriteString("\nFigure 3b: coherent NIs @ 8 buffers, normalized to AP3000-like @ 8 buffers\n")
			writeNormGrid(&b, gb, gb.Cells(results[len(jobsA):]))
			return b.String()
		}}, nil
	}
}

// writeNormGrid renders a normalized grid's cells, which come
// application-major: a row per (NI, buffers), a column per application.
func writeNormGrid(b *strings.Builder, g macro.NormGrid, cells []macro.Cell) {
	fmt.Fprintf(b, "%-18s %5s", "NI", "bufs")
	for _, a := range g.Apps {
		fmt.Fprintf(b, " %12s", a)
	}
	b.WriteString("\n")
	rows := len(g.Kinds) * len(g.Bufs)
	for r, c := range cells[:rows] {
		fmt.Fprintf(b, "%-18s %5s", c.Kind.ShortName(), macro.BufName(c.Bufs))
		for a := range g.Apps {
			fmt.Fprintf(b, " %12.2f", cells[a*rows+r].Normalized)
		}
		b.WriteString("\n")
	}
}

// fig4 is the paper's Figure 4: a single-cycle (register-mapped) NI_2w at
// several flow-control buffer levels, normalized to CNI_32Qm on the memory
// bus.
func fig4(fs *flag.FlagSet) func() (plan, error) {
	p := itersFlag(fs, 1)
	return func() (plan, error) {
		g := macro.Fig4Grid(p())
		return plan{jobs: g.Jobs(), render: func(results []sweep.Result) string {
			// One row per application, its cells in BufferLevels order.
			t := report.NewTable("app", "bufs=1", "bufs=2", "bufs=8", "bufs=inf")
			cells := g.Cells(results)
			for i := 0; i < len(cells); i += len(g.Bufs) {
				row := []string{string(cells[i].App)}
				for _, c := range cells[i : i+len(g.Bufs)] {
					row = append(row, fmt.Sprintf("%.2f", c.Normalized))
				}
				t.Row(row...)
			}
			return "Figure 4: single-cycle NI_2w vs CNI_32Qm (execution time, normalized to CNI_32Qm)\n" + t.String()
		}}, nil
	}
}

// logp is the LogP-style characterization §6.1 discusses and declines to
// use: processor-managed NIs carry their data transfer in the overhead
// columns, NI-managed designs carry it in L.
func logp(fs *flag.FlagSet) func() (plan, error) {
	payload := fs.Int("payload", 64, "message payload in bytes")
	return func() (plan, error) {
		return plan{jobs: micro.LogPJobs(*payload), render: func(results []sweep.Result) string {
			t := report.NewTable("NI", "L", "o_send", "o_recv", "g (gap)")
			for i, k := range nic.PaperSeven() {
				m := results[i].Metrics
				t.Row(k.ShortName(),
					fmt.Sprintf("%.0f", m["L_ns"]),
					fmt.Sprintf("%.0f", m["o_send_ns"]),
					fmt.Sprintf("%.0f", m["o_recv_ns"]),
					fmt.Sprintf("%.0f", m["gap_ns"]))
			}
			return fmt.Sprintf("LogP-style characterization, %dB payload (ns per message)\n", *payload) +
				t.String() +
				"\nNote (paper §6.1): for processor-managed NIs the transfer cost sits in\n" +
				"o_send/o_recv; for NI-managed designs it sits in L — the components do\n" +
				"not measure the same thing across NIs, which is why the paper uses\n" +
				"round-trip latency and bandwidth instead.\n"
		}}, nil
	}
}

// ablate flips one mechanism of a winning design at a time (send prefetch,
// receive-cache bypass, dead-message suppression), sweeps the CNI cache
// size and the UDMA fallback threshold, and moves the fifo NIs behind an
// I/O-bus bridge, the paper's motivation for memory-bus attachment.
func ablate(fs *flag.FlagSet) func() (plan, error) {
	p := itersFlag(fs, 0.5)
	return func() (plan, error) {
		blocks := []int{4, 8, 16, 32, 64, 128}
		thresholds := []int{0, 32, 96, 248}
		bridges := []sim.Time{0, 250 * sim.Nanosecond, 1000 * sim.Nanosecond}
		mech := macro.AblateMechanismJobs(p())
		cache := macro.CacheSizeJobs(blocks, p())
		udma := macro.UdmaThresholdJobs(thresholds, p())
		iobus := macro.IOBusJobs(bridges)
		jobs := append(append(append(mech, cache...), udma...), iobus...)
		return plan{jobs: jobs, render: func(results []sweep.Result) string {
			section := func(n int) []sweep.Result {
				out := results[:n]
				results = results[n:]
				return out
			}
			t := report.NewTable("mechanism", "metric", "enabled", "disabled", "cost of disabling")
			for _, a := range macro.AblationRows(section(len(mech))) {
				t.Row(a.Name, a.Metric,
					fmt.Sprintf("%.2f", a.Enabled),
					fmt.Sprintf("%.2f", a.Disabled),
					fmt.Sprintf("%+.1f%%", 100*a.Delta()))
			}
			t2 := report.NewTable("blocks", "64B rtt (us)", "4096B bw (MB/s)", "em3d exec (us)")
			for _, pt := range macro.CacheSizePoints(blocks, section(len(cache))) {
				t2.Row(fmt.Sprintf("%d", pt.Blocks),
					fmt.Sprintf("%.2f", pt.RttUS),
					fmt.Sprintf("%.0f", pt.BwMBps),
					fmt.Sprintf("%.0f", pt.Em3dUS))
			}
			t3 := report.NewTable("threshold (B)", "dsmc exec (us)")
			for _, pt := range macro.ThresholdPoints(thresholds, section(len(udma))) {
				t3.Row(fmt.Sprintf("%d", pt.Bytes), fmt.Sprintf("%.0f", pt.DsmcUS))
			}
			t4 := report.NewTable("NI", "bridge", "64B rtt (us)", "256B bw (MB/s)")
			for _, pt := range macro.IOBusPoints(bridges, section(len(iobus))) {
				t4.Row(pt.Kind.ShortName(), pt.Bridge.String(),
					fmt.Sprintf("%.2f", pt.RttUS), fmt.Sprintf("%.0f", pt.BwMBps))
			}
			return "Ablation 1: mechanism on/off\n" + t.String() +
				"\nAblation 2: CNI_32Qm NI cache capacity\n" + t2.String() +
				"\nAblation 3: UDMA fallback threshold (dsmc execution time)\n" + t3.String() +
				"\nAblation 4: NI placement — I/O-bus bridge latency\n" + t4.String()
		}}, nil
	}
}

// designspaceGrid sweeps every valid transfer-engine x buffering-policy
// composition, the nine named designs plus the ones the paper never built,
// through the Table 5 microbenchmarks, then the eager-vs-rendezvous
// crossover.
func designspaceGrid(fs *flag.FlagSet) func() (plan, error) {
	quick := fs.Bool("quick", false, "fewer iterations")
	return func() (plan, error) {
		g := designspace.StandardGrid(*quick)
		return plan{jobs: g.Jobs(), render: func(results []sweep.Result) string {
			return designspace.Format(g.Rows(results)) + designspace.FormatCrossover(g, g.CrossoverRows(results))
		}}, nil
	}
}

// chaosGrid drives every named design past saturation: each (spec x
// offered load x fault mix) cell runs the open-loop request/response
// workload against an admission-controlled server. A cell that starves or
// livelocks ends in a watchdog diagnostic shown in its row. The protocol
// sub-grid then drives the RDMA design across the same load ladder once
// per transfer protocol, eager vs rendezvous.
func chaosGrid(fs *flag.FlagSet) func() (plan, error) {
	quick := fs.Bool("quick", false, "fewer requests per cell")
	return func() (plan, error) {
		g, pg := chaos.StandardGrid(*quick), chaos.ProtocolGrid(*quick)
		jobs := g.Jobs()
		split := len(jobs)
		return plan{seed: g.Seed, jobs: append(jobs, pg.Jobs()...), render: func(results []sweep.Result) string {
			return chaos.Format(g, g.Rows(results[:split])) + "\n" + chaos.Format(pg, pg.Rows(results[split:]))
		}}, nil
	}
}

// faultsweep measures reliable delivery under injected network faults, an
// experiment beyond the paper's lossless network (§5.1.2): for each of the
// seven NIs and each loss rate it streams messages node 0 -> node 1 through
// a deterministic fault plane and reports goodput and latency against the
// lossless run, plus the recovery counters. With -unreliable the
// reliability layer is off instead, and the run shows the quiescence
// watchdog naming the stuck endpoints.
func faultsweep(fs *flag.FlagSet) func() (plan, error) {
	quick := fs.Bool("quick", false, "fewer messages per run")
	rateFlag := fs.String("rates", "0,0.02,0.05,0.10", "comma-separated loss rates to sweep")
	payload := fs.Int("payload", 512, "payload bytes per message (512 = 3 fragments)")
	msgs := fs.Int("msgs", 300, "messages per run")
	seed := fs.Uint64("seed", 1, "fault-injection seed")
	unreliable := fs.Bool("unreliable", false, "disable the reliability layer (demonstrates the quiescence watchdog)")
	// Per-fault-class multipliers: each class's probability is the headline
	// loss rate times its multiplier, so one class can be turned up, down,
	// or off without disturbing the others. The defaults reproduce the
	// historical blend exactly.
	def := faults.DefaultMix()
	mix := def
	fs.Float64Var(&mix.Drop, "drop", def.Drop, "drop-rate multiplier on the headline loss rate")
	fs.Float64Var(&mix.Corrupt, "corrupt", def.Corrupt, "corruption-rate multiplier")
	fs.Float64Var(&mix.Duplicate, "dup", def.Duplicate, "duplication-rate multiplier")
	fs.Float64Var(&mix.CtlDrop, "ackloss", def.CtlDrop, "ack/bounce-loss multiplier")
	fs.Float64Var(&mix.Delay, "jitter", def.Delay, "delay-jitter multiplier")
	fs.Float64Var(&mix.ForceBounce, "bounce", def.ForceBounce, "forced-bounce multiplier")
	jitterNS := fs.Int64("jitter-max-ns", int64(def.MaxDelay/sim.Nanosecond), "jitter magnitude ceiling, ns")
	return func() (plan, error) {
		mix.MaxDelay = sim.Time(*jitterNS) * sim.Nanosecond
		rates, err := parseRates(*rateFlag)
		if err != nil {
			return plan{}, err
		}
		count := *msgs
		if *quick {
			count = 120
		}
		if *unreliable {
			// The first nonzero loss rate with reliability off: the first
			// dropped message or ack strands the workload, and instead of
			// returning a silently truncated result the machine panics with
			// the quiescence diagnostic, which the one cell's error carries.
			rate := 0.05
			for _, r := range rates {
				if r > 0 {
					rate = r
					break
				}
			}
			kind := nic.CNI32Qm
			return plan{seed: *seed, jobs: []sweep.Job{{
				ID:     fmt.Sprintf("faultsweep/watchdog/%s/loss=%g", kind.ShortName(), rate),
				Config: map[string]string{"experiment": "faultsweep", "ni": kind.ShortName(), "loss": fmt.Sprint(rate)},
				Run:    func() sweep.Outcome { return faultRun(kind, mix, rate, *seed, *payload, count, false) },
			}}, render: func(results []sweep.Result) string {
				diag := "run completed without loss (try a higher rate or different seed)"
				if err := results[0].Err; err != "" {
					diag = strings.TrimPrefix(err, "panic: ")
				}
				return fmt.Sprintf("Watchdog demo: %s, loss %.0f%%, reliability OFF — expecting a stall diagnostic\n\n",
					kind.ShortName(), 100*rate) + diag + "\n"
			}}, nil
		}
		var jobs []sweep.Job
		for _, kind := range nic.PaperSeven() {
			for _, rate := range rates { // rates inner, in the table's row order
				jobs = append(jobs, sweep.Job{
					ID: fmt.Sprintf("faultsweep/%s/loss=%g", kind.ShortName(), rate),
					Config: map[string]string{
						"experiment": "faultsweep", "ni": kind.ShortName(),
						"loss": fmt.Sprint(rate), "payload": fmt.Sprint(*payload),
						"msgs": fmt.Sprint(count),
					},
					Run: func() sweep.Outcome { return faultRun(kind, mix, rate, *seed, *payload, count, true) },
				})
			}
		}
		return plan{seed: *seed, jobs: jobs, render: func(results []sweep.Result) string {
			tbl := report.NewTable("NI", "loss", "MB/s", "vs lossless", "lat(us)", "xlat", "recovery counters")
			for i, r := range results {
				// Rates are inner, so each NI's first row is its lossless baseline.
				base := results[i-i%len(rates)].Metrics
				rel, xlat := 1.0, 1.0
				if base["goodput_mbps"] > 0 {
					rel = r.Metrics["goodput_mbps"] / base["goodput_mbps"]
				}
				if base["mean_lat_ps"] > 0 {
					xlat = r.Metrics["mean_lat_ps"] / base["mean_lat_ps"]
				}
				tbl.Row(r.Config["ni"], fmt.Sprintf("%.0f%%", 100*rates[i%len(rates)]),
					fmt.Sprintf("%.1f", r.Metrics["goodput_mbps"]), report.Bar(rel, 20),
					fmt.Sprintf("%.2f", r.Metrics["mean_lat_us"]),
					fmt.Sprintf("%.2f", xlat), r.Info["recovery"])
			}
			return fmt.Sprintf("Fault sweep: %d msgs x %dB node0->node1, reliability on, seed %d\n", count, *payload, *seed) +
				"(loss = drop rate; corruption/duplication/ack-loss/jitter scale with it)\n\n" + tbl.String()
		}}, nil
	}
}

// parseRates parses the -rates list of loss rates.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 || v > 1 {
			return nil, fmt.Errorf("bad loss rate %q (want 0..1, comma-separated)", f)
		}
		rates = append(rates, v)
	}
	return rates, nil
}

const hData = 1

// faultRun streams count messages node 0 -> node 1 through the fault plane
// and measures delivered goodput (MB/s), mean process-to-process delivered
// latency, and the recovery counters.
func faultRun(kind nic.Kind, mix faults.Mix, rate float64, seed uint64, payload, count int, reliable bool) sweep.Outcome {
	cfg := machine.DefaultConfig(kind, 8)
	cfg.Nodes = 2
	if reliable {
		cfg.Net.Reliability = netsim.DefaultReliability()
	}
	cfg.Faults = mix.Config(rate, seed)
	m := machine.New(cfg)

	received := 0
	var firstSend, lastRecv, latSum, meanLat sim.Time
	for _, n := range m.Nodes {
		n.EP.Register(hData, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			received++
			latSum += msg.ArriveTime - msg.SendTime
			lastRecv = ep.Proc().P.Now()
		})
	}
	st := m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			firstSend = n.Proc.P.Now()
			for i := 0; i < count; i++ {
				n.EP.Send(1, hData, payload, 0)
			}
			n.Barrier()
			return
		}
		n.EP.WaitUntil(func() bool { return received >= count })
		n.Barrier()
	})

	goodput := 0.0
	if elapsed := lastRecv - firstSend; elapsed > 0 {
		bytes := float64(payload+netsim.HeaderBytes) * float64(count)
		goodput = bytes / (float64(elapsed) / float64(sim.Second)) / 1e6
	}
	if received > 0 {
		meanLat = latSum / sim.Time(received)
	}
	summary := report.ReliabilitySummary(st.Total())
	if summary == "" {
		summary = "-"
	}
	return sweep.Outcome{
		Metrics: map[string]float64{
			"goodput_mbps": goodput,
			"mean_lat_us":  meanLat.Microseconds(),
			"mean_lat_ps":  float64(meanLat),
		},
		Info: map[string]string{"recovery": summary},
	}
}

// scale is machine-size scaling of one application on a fifo and a
// coherent NI: return-to-sender flow control allocates buffers
// independently of the node count (§5.1.2), so per-node execution time
// should stay roughly flat as the machine grows.
func scale(fs *flag.FlagSet) func() (plan, error) {
	app := fs.String("app", "dsmc", "application")
	p := itersFlag(fs, 0.5)
	// -baseline sets -shards to 1 for its serial rerun: sharding is an
	// execution strategy, not an experiment parameter, so neither job IDs
	// nor the rendered text mention it.
	shards := fs.Int("shards", 1, "engine shards per simulation (1 = serial engine)")
	return func() (plan, error) {
		a, err := workload.ByName(*app)
		if err != nil {
			return plan{}, err
		}
		sizes := []int{4, 8, 16, 32}
		return plan{jobs: macro.ScaleJobs(a, sizes, *shards, p()), render: func(results []sweep.Result) string {
			t := report.NewTable("nodes", "cm5 exec (us)", "cni32qm exec (us)")
			for i, nodes := range sizes { // the two NI kinds per size, in ScaleJobs order
				t.Row(fmt.Sprintf("%d", nodes),
					fmt.Sprintf("%.0f", results[2*i].Metrics["exec_us"]),
					fmt.Sprintf("%.0f", results[2*i+1].Metrics["exec_us"]))
			}
			return fmt.Sprintf("machine-size scaling, %s, flow control buffers = 8\n", *app) + t.String()
		}}, nil
	}
}

// scalebig is the large-machine story (DESIGN.md §10, EXPERIMENTS.md
// "Scaling past 16 nodes"): the Figure 1 transfer/buffering pairs for
// appbt, barnes and dsmc, then the open-loop overload cells, including the
// send-throttled coherent spec and the rendezvous protocol, at each size.
func scalebig(fs *flag.FlagSet) func() (plan, error) {
	p := itersFlag(fs, 0.5)
	shards := fs.Int("shards", 1, "engine shards per simulation (1 = serial engine)")
	sizesFlag := fs.String("sizes", "64,256,1024", "comma-separated machine sizes")
	return func() (plan, error) {
		sizes, err := parseSizes(*sizesFlag)
		if err != nil {
			return plan{}, err
		}
		jobs := macro.ScaleFigure1Jobs(sizes, *shards, p())
		fig1Cells := len(jobs)
		for _, nodes := range sizes {
			// The chaos job IDs repeat per size, hence the nodes= suffix.
			// The rendezvous cells keep RTS/CTS and one-sided put frames
			// crossing shard boundaries under the identity gates too.
			for _, g := range []chaos.GridSpec{chaos.ScaleGrid(nodes, *shards, 20), chaos.ScaleProtocolGrid(nodes, *shards, 20)} {
				for _, j := range g.Jobs() {
					j.ID = fmt.Sprintf("%s/nodes=%d", j.ID, nodes)
					jobs = append(jobs, j)
				}
			}
		}
		return plan{jobs: jobs, render: func(results []sweep.Result) string {
			t := report.NewTable("nodes", "app", "cm5/1 exec (us)", "cm5/inf exec (us)", "buffering share")
			for i := 0; i+1 < fig1Cells; i += 2 {
				one, inf := results[i], results[i+1]
				t1 := one.Metrics["exec_us"]
				share := 0.0
				if t1 > 0 {
					if share = (t1 - inf.Metrics["exec_us"]) / t1; share < 0 {
						share = 0
					}
				}
				t.Row(one.Config["nodes"], one.Config["app"],
					fmt.Sprintf("%.0f", t1), fmt.Sprintf("%.0f", inf.Metrics["exec_us"]),
					fmt.Sprintf("%.2f", share))
			}
			ot := report.NewTable("nodes", "spec", "goodput (mb/s)", "p99 (us)", "completed")
			for _, r := range results[fig1Cells:] {
				spec := r.Config["spec"]
				if r.Config["protocol"] == "rendezvous" {
					spec += "+rdv"
				}
				if r.Err != "" {
					ot.Row(r.Config["nodes"], spec, "err", "err", "err")
					continue
				}
				ot.Row(r.Config["nodes"], spec,
					fmt.Sprintf("%.1f", r.Metrics["goodput_mbps"]),
					fmt.Sprintf("%.1f", r.Metrics["p99_us"]),
					fmt.Sprintf("%.0f", r.Metrics["completed"]))
			}
			return "large-machine scaling\n" + t.String() + ot.String()
		}}, nil
	}
}

// parseSizes parses the -sizes list of machine sizes.
func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad -sizes entry %q (want machine sizes >= 2, comma-separated)", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// benchdump is every cell the other grids and the Go benchmarks draw from
// the shared grid definitions, swept as one report (BENCH_results.json by
// default; see EXPERIMENTS.md for the schema and the mapping back to the
// paper). Every cell must succeed.
func benchdump(fs *flag.FlagSet) func() (plan, error) {
	quick := fs.Bool("quick", true, "reduced iteration counts (the CI configuration)")
	// The shared -json flag defaults to the committed artifact here.
	if f := fs.Lookup("json"); f != nil {
		f.DefValue = "BENCH_results.json"
		_ = f.Value.Set(f.DefValue) // a string flag accepts any value
	}
	return func() (plan, error) {
		p := workload.Params{Iters: 1}
		if *quick {
			p.Iters = 0.2
		}
		var jobs []sweep.Job
		jobs = append(jobs, micro.StandardSpec(*quick).Jobs()...)
		jobs = append(jobs, micro.LogPJobs(64)...)
		jobs = append(jobs, macro.Figure1Jobs(p)...)
		jobs = append(jobs, macro.Fig3aGrid(p).Jobs()...)
		jobs = append(jobs, macro.Fig3bGrid(p).Jobs()...)
		jobs = append(jobs, macro.Fig4Grid(p).Jobs()...)
		jobs = append(jobs, macro.Table4Jobs(p)...)
		jobs = append(jobs, macro.ScaleJobs(workload.Dsmc, []int{4, 8, 16, 32}, 1, p)...)
		// The large-machine curve: Figure 1 pairs at 64 and 256 nodes on
		// four engine shards, which only affect wall-clock time.
		jobs = append(jobs, macro.ScaleFigure1Jobs([]int{64, 256}, 4, p)...)
		jobs = append(jobs, macro.AblateMechanismJobs(p)...)
		jobs = append(jobs, macro.CacheSizeJobs([]int{4, 8, 16, 32, 64, 128}, p)...)
		jobs = append(jobs, macro.UdmaThresholdJobs([]int{0, 32, 96, 248}, p)...)
		jobs = append(jobs, macro.IOBusJobs([]sim.Time{0, 250 * sim.Nanosecond, 1000 * sim.Nanosecond})...)
		return plan{jobs: jobs, strict: true, render: func(results []sweep.Result) string {
			return fmt.Sprintf("benchdump: %d cells\n", len(results))
		}}, nil
	}
}
