// Package chaos defines the overload-robustness grid: every named NI
// design point driven past saturation by the open-loop workload under a
// matrix of offered-load levels and fault mixes, with an admission policy
// active at the server. Where designspace ranks the design space by how
// fast it runs, chaos ranks it by how it fails: goodput retained, latency
// blowup, what was dropped/bounced/evicted, and how quickly service
// returns after an outage. The grid is the single source of truth shared
// by nisim chaos and the determinism regression test.
package chaos

import (
	"fmt"
	"strings"

	"nisim/internal/faults"
	"nisim/internal/machine"
	"nisim/internal/msglayer"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/sim"
	"nisim/internal/stats"
	"nisim/internal/sweep"
	"nisim/internal/workload"
)

// Load is one offered-load level: a name and the per-client mean
// inter-arrival gap (smaller gap = higher load).
type Load struct {
	Name string
	Gap  sim.Time
}

// Mix is one chaos condition: the fault mix on the wire plus the overload
// policy the server-side NI runs. The Clean mix is the baseline the
// degradation columns compare against.
type Mix struct {
	Name string
	// Faults is applied to the machine (zero = lossless network).
	Faults faults.Config
	// Reliability, when enabled, layers retransmission with a deadline on
	// top of the faults.
	Reliability netsim.ReliabilityConfig
	// Overload is the admission policy installed on every node's NI.
	Overload nic.OverloadPolicy
	// Protocol selects the messaging layer's transfer protocol for the
	// cell (zero value = eager, the baseline); RdvThreshold, when
	// positive, overrides the rendezvous size threshold. On specs without
	// an RDMA send engine a rendezvous mix falls back to eager.
	Protocol     msglayer.ProtocolKind
	RdvThreshold int
	// OutageEnd, when positive, marks when the mix's outage window lifts,
	// enabling the recovery-time column.
	OutageEnd sim.Time
}

// The outage mix's window: the server's link is dead for [start, end).
const (
	outageStart = 10 * sim.Microsecond
	outageEnd   = 40 * sim.Microsecond
)

// GridSpec parameterizes a chaos grid.
type GridSpec struct {
	// Title heads the formatted table; empty means the standard overload
	// sweep heading.
	Title    string
	Specs    []nic.Spec
	Loads    []Load
	Mixes    []Mix
	Nodes    int
	Requests int // per client
	// ReqBytes and RespBytes are the request and response payload sizes
	// (the standard grid's small-RPC mix is 32/128; the protocol grid
	// flips the bulk direction toward the overloaded server).
	ReqBytes, RespBytes int
	Seed                uint64
	// Shards partitions each cell's simulation across engine shards
	// (machine.Config.Shards); zero or one runs the serial engine. Shards
	// is an execution strategy, not an experiment parameter — results are
	// byte-identical at any value (the partition determinism regression
	// pins this), so it appears in neither job IDs nor config maps.
	Shards int
}

// StandardGrid returns the full chaos grid: the nine named design points ×
// three load levels × three mixes (clean, lossy, outage).
func StandardGrid(quick bool) GridSpec {
	var specs []nic.Spec
	for _, k := range nic.Kinds() {
		specs = append(specs, nic.SpecFor(k))
	}
	const seed = 1
	// The lossy mix bounds retries by attempt count; its deadline is slack
	// enough that the retry ladder (4,8,16,... µs backoff) runs out first —
	// a tight deadline here would occasionally kill a barrier or done
	// message after a run of correlated losses and strand the run on a
	// watchdog diagnostic instead of a measurement.
	relLossy := netsim.DefaultReliability()
	relLossy.MaxAttempts = 16
	relLossy.Deadline = 200 * sim.Microsecond
	// The outage mix bounds retries by deadline: requests aimed at the dead
	// server abandon after 50 µs instead of retrying forever, and the
	// control traffic is safe because it flows only after the window lifts.
	relOutage := netsim.DefaultReliability()
	relOutage.MaxAttempts = 16
	relOutage.Deadline = 50 * sim.Microsecond
	g := GridSpec{
		Specs: specs,
		Loads: []Load{
			{Name: "low", Gap: 8 * sim.Microsecond},
			{Name: "mid", Gap: 2 * sim.Microsecond},
			{Name: "sat", Gap: 500 * sim.Nanosecond},
		},
		Mixes: []Mix{
			{
				// Lossless wire; the admission watermark bounces the excess
				// back into the senders' retry machinery.
				Name: "clean",
				Overload: nic.OverloadPolicy{
					AdmitPct: 75, Refuse: nic.RefuseBounce,
					ControlBase: msglayer.ReservedHandlerBase,
				},
			},
			{
				// 5% headline fault rate in the default blend; refused
				// arrivals are dropped and the reliability layer decides
				// whether to retry or abandon.
				Name:        "lossy",
				Faults:      faults.DefaultMix().Config(0.05, seed),
				Reliability: relLossy,
				Overload: nic.OverloadPolicy{
					AdmitPct: 75, Refuse: nic.RefuseDrop,
					ControlBase: msglayer.ReservedHandlerBase,
				},
			},
			{
				// The server's link dies for 30 µs mid-run; eviction keeps
				// the freshest backlog when it returns.
				Name: "outage",
				Faults: faults.Config{
					Seed:    seed,
					Outages: []faults.Outage{{Endpoint: 0, Start: outageStart, End: outageEnd}},
				},
				Reliability: relOutage,
				Overload: nic.OverloadPolicy{
					AdmitPct: 75, Refuse: nic.RefuseDrop, Evict: nic.EvictOldest,
					ControlBase: msglayer.ReservedHandlerBase,
				},
				OutageEnd: outageEnd,
			},
			{
				// The clean mix again, but the watermark has hysteresis:
				// refusal starts at 75% occupancy and does not lift until
				// the queue drains to 40%, so the policy sheds load in
				// bursts instead of flapping admit/refuse around a single
				// watermark. The "vs clean" column isolates what the
				// drain-down costs (or saves) each design.
				Name: "hyst",
				Overload: nic.OverloadPolicy{
					AdmitPct: 75, ResumePct: 40, Refuse: nic.RefuseBounce,
					ControlBase: msglayer.ReservedHandlerBase,
				},
			},
		},
		Nodes:    4,
		Requests: 60,
		ReqBytes: 32, RespBytes: 128,
		Seed: seed,
	}
	if quick {
		g.Requests = 20
	}
	return g
}

// config assembles one cell's machine configuration: the spec with the
// mix's overload policy grafted on, the mix's faults and reliability, and
// the starvation watchdog armed everywhere — an overload cell must never
// silently hang.
func (g GridSpec) config(s nic.Spec, mx Mix) machine.Config {
	spec := s
	spec.Overload = mx.Overload
	cfg := machine.DefaultConfig(nic.KindOf(s), 8)
	cfg.Nodes = g.Nodes
	cfg.NISpec = &spec
	cfg.Faults = mx.Faults
	cfg.Net.Reliability = mx.Reliability
	cfg.Msg.Protocol = mx.Protocol
	if mx.RdvThreshold > 0 {
		cfg.Msg.RendezvousThreshold = mx.RdvThreshold
	}
	cfg.Watchdog = true
	cfg.StallHorizon = 200 * sim.Microsecond
	cfg.Shards = g.Shards
	return cfg
}

// ScaleGrid returns the overload grid's machine-scaling variant: the
// open-loop workload on one fifo NI, one coherent NI, and the
// send-throttled coherent NI (whose credit returns cross shards as lagged
// messages — the spec that used to force a serial rebuild), clean mix at
// the mid load level, at a given machine size and shard count. It is the
// chaos half of the nisim scalebig sweep (EXPERIMENTS.md, "Scaling past
// 16 nodes").
func ScaleGrid(nodes, shards, requests int) GridSpec {
	g := StandardGrid(true)
	g.Specs = []nic.Spec{nic.SpecFor(nic.CM5), nic.SpecFor(nic.CNI32Qm), nic.SpecFor(nic.CNI32QmThrottle)}
	g.Loads = g.Loads[1:2] // mid
	g.Mixes = g.Mixes[0:1] // clean
	g.Nodes = nodes
	g.Requests = requests
	g.Shards = shards
	return g
}

// rdmaSpec is the one-sided design point the protocol grids drive: the
// RDMA send engine over the coherent receive side with a memory-homed
// ring — the composition the rendezvous protocol targets.
func rdmaSpec() nic.Spec {
	return nic.Spec{Send: nic.RDMAEngine, Recv: nic.CoherentEngine, Buffering: nic.MemoryRing}
}

// ProtocolGrid returns the eager-vs-rendezvous overload grid: the RDMA
// design point across the load ladder, clean wire, once per protocol,
// with the bulk direction flipped toward the server — 2 KB ingest
// requests, 32-byte acks. Under the eager mix every request is a run of
// fragments through the server's admission-controlled receive queue;
// under the rendezvous mix (threshold 1024) the same requests go RTS/CTS
// plus one-sided puts that can neither bounce nor be refused, so the
// cells measure exactly what moving bulk payload out of the receive
// queue buys at saturation. The eager mix comes first: it is the
// baseline of the "vs" column.
func ProtocolGrid(quick bool) GridSpec {
	g := StandardGrid(quick)
	clean := g.Mixes[0].Overload
	g.Title = "Protocol sweep: eager vs rendezvous on the RDMA design, clean wire"
	g.Specs = []nic.Spec{rdmaSpec()}
	g.ReqBytes, g.RespBytes = 2048, 32
	g.Mixes = []Mix{
		{Name: "eager", Overload: clean},
		{Name: "rdv", Overload: clean, Protocol: msglayer.Rendezvous, RdvThreshold: 1024},
	}
	return g
}

// ScaleProtocolGrid is the protocol grid's machine-scaling variant (the
// rendezvous half of the nisim scalebig sweep): mid load only, at a given
// machine size and shard count. Its cells put the RTS/CTS handshake and
// the one-sided put frames on the lagged-control discipline across shard
// boundaries, so nisim scalebig's serial-vs-sharded byte-identity gate covers
// the rendezvous protocol.
func ScaleProtocolGrid(nodes, shards, requests int) GridSpec {
	g := ProtocolGrid(true)
	g.Loads = g.Loads[1:2] // mid
	g.Nodes = nodes
	g.Requests = requests
	g.Shards = shards
	return g
}

// params builds the open-loop workload parameters for one cell.
func (g GridSpec) params(ld Load, mx Mix) workload.OpenLoopParams {
	return workload.OpenLoopParams{
		MeanGap:    ld.Gap,
		Requests:   g.Requests,
		ReqBytes:   g.ReqBytes,
		RespBytes:  g.RespBytes,
		Seed:       g.Seed,
		DrainGrace: 80 * sim.Microsecond,
		OutageEnd:  mx.OutageEnd,
	}
}

// Jobs returns the grid as sweep jobs: specs outer, loads middle, mixes
// inner — the deterministic order Rows expects.
func (g GridSpec) Jobs() []sweep.Job {
	var jobs []sweep.Job
	for _, s := range g.Specs {
		for _, ld := range g.Loads {
			for _, mx := range g.Mixes {
				s, ld, mx := s, ld, mx
				jobs = append(jobs, sweep.Job{
					ID: fmt.Sprintf("chaos/%s/%s/%s", s.Name(), ld.Name, mx.Name),
					Config: map[string]string{
						"experiment": "chaos", "spec": s.Name(),
						"load": ld.Name, "gap_ns": fmt.Sprint(ld.Gap.Nanoseconds()),
						"mix": mx.Name, "requests": fmt.Sprint(g.Requests),
						"nodes": fmt.Sprint(g.Nodes), "protocol": mx.Protocol.String(),
					},
					Run: func() sweep.Outcome {
						res, st := workload.RunOpenLoop(g.config(s, mx), g.params(ld, mx))
						return outcome(res, st)
					},
				})
			}
		}
	}
	return jobs
}

// outcome flattens one cell's service result and recovery counters.
func outcome(res *workload.OpenLoopResult, st *stats.Machine) sweep.Outcome {
	tot := st.Total()
	m := map[string]float64{
		"offered_rps":       res.OfferedRPS,
		"issued":            float64(res.Issued),
		"completed":         float64(res.Completed),
		"goodput_mbps":      res.GoodputMBps,
		"p50_us":            res.P50().Microseconds(),
		"p99_us":            res.P99().Microseconds(),
		"bounces":           float64(tot.Bounces),
		"admit_drops":       float64(tot.AdmitDrops),
		"admit_bounces":     float64(tot.AdmitBounces),
		"admit_evictions":   float64(tot.AdmitEvictions),
		"delivery_failures": float64(tot.DeliveryFailures),
	}
	if res.Recovery >= 0 {
		m["recovery_us"] = res.Recovery.Microseconds()
	}
	return sweep.Outcome{Metrics: m}
}

// Row is one cell's measurements, reassembled from the sweep results.
type Row struct {
	Spec nic.Spec
	Load Load
	Mix  Mix
	// Err is the contained panic of a cell that terminated on a watchdog
	// diagnostic instead of draining; its metrics are then absent.
	Err     string
	Metrics map[string]float64
}

// Rows reassembles rows from the results of running Jobs() through the
// orchestrator (results must be in job order, which sweep.Run guarantees).
func (g GridSpec) Rows(results []sweep.Result) []Row {
	rows := make([]Row, 0, len(results))
	i := 0
	for _, s := range g.Specs {
		for _, ld := range g.Loads {
			for _, mx := range g.Mixes {
				r := results[i]
				i++
				rows = append(rows, Row{Spec: s, Load: ld, Mix: mx, Err: r.Err, Metrics: r.Metrics})
			}
		}
	}
	return rows
}

// Format renders the grid as a text table. The "vs base" column is the
// cell's goodput relative to the grid's first mix at the same (spec,
// load) — the degradation the fault mix (or protocol switch) inflicted
// on that design.
func Format(g GridSpec, rows []Row) string {
	var b strings.Builder
	title := g.Title
	if title == "" {
		title = "Chaos sweep: open-loop request/response"
	}
	fmt.Fprintf(&b, "%s, %d nodes, %d requests/client\n", title, g.Nodes, g.Requests)
	fmt.Fprintln(&b, "(goodput = delivered response payload; latency from scheduled arrival; recovery from outage end)")
	baseline := g.Mixes[0].Name
	fmt.Fprintf(&b, "%-18s %-4s %-7s %9s %9s %8s %8s %9s %7s %8s %9s\n",
		"spec", "load", "mix", "done", "MB/s", "vs "+baseline, "p99(us)", "drops", "evict", "bounces", "rec(us)")
	base := make(map[string]float64, len(rows))
	for _, r := range rows {
		if r.Mix.Name == baseline && r.Err == "" {
			base[r.Spec.Name()+"/"+r.Load.Name] = r.Metrics["goodput_mbps"]
		}
	}
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-18s %-4s %-7s !! %s\n", r.Spec.Name(), r.Load.Name, r.Mix.Name, firstLine(r.Err))
			continue
		}
		vs := "-"
		if base := base[r.Spec.Name()+"/"+r.Load.Name]; base > 0 && r.Mix.Name != baseline {
			vs = fmt.Sprintf("%.2fx", r.Metrics["goodput_mbps"]/base)
		}
		rec := "-"
		if v, ok := r.Metrics["recovery_us"]; ok {
			rec = fmt.Sprintf("%.1f", v)
		}
		drops := r.Metrics["admit_drops"] + r.Metrics["delivery_failures"]
		fmt.Fprintf(&b, "%-18s %-4s %-7s %4.0f/%-4.0f %9.1f %8s %8.1f %9.0f %7.0f %8.0f %9s\n",
			r.Spec.Name(), r.Load.Name, r.Mix.Name,
			r.Metrics["completed"], r.Metrics["issued"],
			r.Metrics["goodput_mbps"], vs, r.Metrics["p99_us"],
			drops, r.Metrics["admit_evictions"], r.Metrics["bounces"], rec)
	}
	return b.String()
}

// firstLine truncates a contained panic to its headline.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
