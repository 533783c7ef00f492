// Package designspace defines the full NI design-space sweep: every valid
// point of the transfer-engine × buffering-policy cross product — the nine
// named designs of the paper plus the cross-product specs it never built —
// measured with the Table 5 microbenchmarks. The grid is the single source
// of truth shared by nisim designspace and the determinism regression test.
package designspace

import (
	"fmt"
	"sort"
	"strings"

	"nisim/internal/machine"
	"nisim/internal/micro"
	"nisim/internal/msglayer"
	"nisim/internal/nic"
	"nisim/internal/sweep"
)

// GridSpec parameterizes a design-space grid: which specs, which payloads,
// and the iteration counts.
type GridSpec struct {
	Specs []nic.Spec
	// LatPayload and BwPayload are the single payload sizes measured per
	// design point (one latency cell, one bandwidth cell — the full Table 5
	// payload columns over 39 designs would be a 273-cell grid).
	LatPayload, BwPayload int
	// Warmup and Rounds control the latency microbenchmark; Msgs is the
	// bandwidth message count.
	Warmup, Rounds, Msgs int
	// CrossoverSpec, when non-nil, appends the protocol-crossover sub-grid
	// after the design-space jobs: this one design measured at every
	// CrossoverPayloads size once per transfer protocol, with the
	// rendezvous size threshold forced below every measured payload so the
	// cells compare pure-eager against pure-rendezvous transfer. The spec
	// must have an RDMA send engine or the rendezvous cells would silently
	// fall back to eager and measure nothing.
	CrossoverSpec     *nic.Spec
	CrossoverPayloads []int
}

// StandardGrid returns the full design-space grid: the nine named specs
// in Kind order, then every cross-product spec in nic.AllSpecs order.
func StandardGrid(quick bool) GridSpec {
	var specs []nic.Spec
	for _, k := range nic.Kinds() {
		specs = append(specs, nic.SpecFor(k))
	}
	specs = append(specs, nic.CrossSpecs()...)
	g := GridSpec{
		Specs:      specs,
		LatPayload: 64,
		BwPayload:  256,
		Warmup:     600, Rounds: 100, Msgs: 400,
		CrossoverSpec:     &nic.Spec{Send: nic.RDMAEngine, Recv: nic.CoherentEngine, Buffering: nic.MemoryRing},
		CrossoverPayloads: []int{256, 1024, 4096, 16384},
	}
	if quick {
		g.Warmup, g.Rounds, g.Msgs = 50, 10, 40
	}
	return g
}

// config builds the two-node machine configuration for one design point.
// Like micro.RoundTrip's named-kind path, any design using the UDMA engine
// forces the DMA path for all payloads, so the engine under test is the
// one the spec names.
func config(s nic.Spec) machine.Config {
	cfg := machine.DefaultConfig(nic.KindOf(s), 8)
	spec := s
	cfg.NISpec = &spec
	if s.Send == nic.UDMAEngine || s.Recv == nic.UDMAEngine {
		cfg.NI.UDMAThresholdBytes = 0
	}
	return cfg
}

// protoConfig is config with the messaging layer pinned to one transfer
// protocol. Threshold 1 puts every payload-carrying message on the
// rendezvous path (control messages are header-only and stay eager), so
// the crossover cells measure the protocols, not the threshold heuristic.
func protoConfig(s nic.Spec, pk msglayer.ProtocolKind) machine.Config {
	cfg := config(s)
	cfg.Msg.Protocol = pk
	cfg.Msg.RendezvousThreshold = 1
	return cfg
}

// protocols is the crossover sub-grid's inner axis, baseline first.
var protocols = []msglayer.ProtocolKind{msglayer.Eager, msglayer.Rendezvous}

// Jobs returns one latency and one bandwidth job per design point, then
// (when CrossoverSpec is set) four jobs per crossover payload — eager
// latency, eager bandwidth, rendezvous latency, rendezvous bandwidth — in
// the deterministic order Rows and CrossoverRows expect.
func (g GridSpec) Jobs() []sweep.Job {
	var jobs []sweep.Job
	for _, s := range g.Specs {
		s := s
		axes := func(metric string, payload int) map[string]string {
			return map[string]string{
				"experiment": "designspace", "metric": metric,
				"spec": s.Name(), "send": s.Send.String(), "recv": s.Recv.String(),
				"buffering": s.Buffering.String(), "throttle": fmt.Sprint(s.Throttle),
				"bufs": "8", "payload": fmt.Sprint(payload),
			}
		}
		jobs = append(jobs, sweep.Job{
			ID:     fmt.Sprintf("lat/%s/%dB", s.Name(), g.LatPayload),
			Config: axes("latency", g.LatPayload),
			Run: func() sweep.Outcome {
				us := micro.RoundTripCfg(config(s), g.LatPayload, g.Warmup, g.Rounds).Microseconds()
				return sweep.Outcome{Metrics: map[string]float64{"rtt_us": us}}
			},
		})
		jobs = append(jobs, sweep.Job{
			ID:     fmt.Sprintf("bw/%s/%dB", s.Name(), g.BwPayload),
			Config: axes("bandwidth", g.BwPayload),
			Run: func() sweep.Outcome {
				mb := micro.BandwidthCfg(config(s), g.BwPayload, g.Msgs)
				return sweep.Outcome{Metrics: map[string]float64{"bw_mbps": mb}}
			},
		})
	}
	if g.CrossoverSpec != nil {
		s := *g.CrossoverSpec
		for _, payload := range g.CrossoverPayloads {
			for _, pk := range protocols {
				payload, pk := payload, pk
				axes := func(metric string) map[string]string {
					return map[string]string{
						"experiment": "designspace", "metric": metric,
						"spec": s.Name(), "protocol": pk.String(),
						"bufs": "8", "payload": fmt.Sprint(payload),
					}
				}
				jobs = append(jobs, sweep.Job{
					ID:     fmt.Sprintf("xover/lat/%s/%dB", pk, payload),
					Config: axes("latency"),
					Run: func() sweep.Outcome {
						us := micro.RoundTripCfg(protoConfig(s, pk), payload, g.Warmup, g.Rounds).Microseconds()
						return sweep.Outcome{Metrics: map[string]float64{"rtt_us": us}}
					},
				})
				jobs = append(jobs, sweep.Job{
					ID:     fmt.Sprintf("xover/bw/%s/%dB", pk, payload),
					Config: axes("bandwidth"),
					Run: func() sweep.Outcome {
						mb := micro.BandwidthCfg(protoConfig(s, pk), payload, g.Msgs)
						return sweep.Outcome{Metrics: map[string]float64{"bw_mbps": mb}}
					},
				})
			}
		}
	}
	return jobs
}

// Row is one design point's measurements.
type Row struct {
	Spec      nic.Spec
	LatencyUS float64
	BandMB    float64
}

// Rows reassembles rows from the results of running Jobs() through the
// orchestrator. Results must be in job order (which sweep.Run guarantees).
func (g GridSpec) Rows(results []sweep.Result) []Row {
	rows := make([]Row, 0, len(g.Specs))
	for i, s := range g.Specs {
		rows = append(rows, Row{
			Spec:      s,
			LatencyUS: results[2*i].Metrics["rtt_us"],
			BandMB:    results[2*i+1].Metrics["bw_mbps"],
		})
	}
	return rows
}

// CrossoverRow is one payload size's eager-vs-rendezvous comparison.
type CrossoverRow struct {
	Payload                int
	EagerLatUS, RdvLatUS   float64
	EagerBandMB, RdvBandMB float64
}

// CrossoverRows reassembles the crossover sub-grid's rows from the tail of
// the results slice (the sub-grid's jobs follow the design-space jobs).
func (g GridSpec) CrossoverRows(results []sweep.Result) []CrossoverRow {
	if g.CrossoverSpec == nil {
		return nil
	}
	rows := make([]CrossoverRow, 0, len(g.CrossoverPayloads))
	i := 2 * len(g.Specs)
	for _, payload := range g.CrossoverPayloads {
		rows = append(rows, CrossoverRow{
			Payload:     payload,
			EagerLatUS:  results[i].Metrics["rtt_us"],
			EagerBandMB: results[i+1].Metrics["bw_mbps"],
			RdvLatUS:    results[i+2].Metrics["rtt_us"],
			RdvBandMB:   results[i+3].Metrics["bw_mbps"],
		})
		i += 4
	}
	return rows
}

// FormatCrossover renders the protocol-crossover sub-grid: per payload
// size, the two protocols' round trip and bandwidth plus the rendezvous
// ratios, so the size where the handshake pays for itself is readable
// straight off the table.
func FormatCrossover(g GridSpec, rows []CrossoverRow) string {
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Protocol crossover on %s: eager vs rendezvous (threshold forced below payload)\n",
		g.CrossoverSpec.Name())
	fmt.Fprintf(&b, "%-8s %12s %12s %9s %12s %12s %9s\n",
		"payload", "eager rtt", "rdv rtt", "ratio", "eager MB/s", "rdv MB/s", "ratio")
	for _, r := range rows {
		latRatio, bwRatio := 0.0, 0.0
		if r.EagerLatUS > 0 {
			latRatio = r.RdvLatUS / r.EagerLatUS
		}
		if r.EagerBandMB > 0 {
			bwRatio = r.RdvBandMB / r.EagerBandMB
		}
		fmt.Fprintf(&b, "%-8d %12.2f %12.2f %8.2fx %12.1f %12.1f %8.2fx\n",
			r.Payload, r.EagerLatUS, r.RdvLatUS, latRatio, r.EagerBandMB, r.RdvBandMB, bwRatio)
	}
	return b.String()
}

// Format renders the sweep as a text table: named design points first in
// Kind order, then the cross-product points sorted by round-trip latency,
// so the interesting question — does any unstudied composition beat the
// named designs? — is answerable at a glance.
func Format(rows []Row) string {
	named := make([]Row, 0, len(rows))
	cross := make([]Row, 0, len(rows))
	for _, r := range rows {
		if nic.KindOf(r.Spec) != nic.Custom {
			named = append(named, r)
		} else {
			cross = append(cross, r)
		}
	}
	sort.SliceStable(cross, func(i, j int) bool { return cross[i].LatencyUS < cross[j].LatencyUS })

	var b strings.Builder
	fmt.Fprintln(&b, "Design space: send engine x recv engine x buffering, round trip and bandwidth")
	fmt.Fprintf(&b, "%-32s %-11s %-11s %-8s %9s %8s\n", "spec", "send", "recv", "buffer", "rtt(us)", "MB/s")
	section := func(title string, rs []Row) {
		fmt.Fprintf(&b, "-- %s\n", title)
		for _, r := range rs {
			fmt.Fprintf(&b, "%-32s %-11s %-11s %-8s %9.2f %8.1f\n",
				r.Spec.Name(), r.Spec.Send, r.Spec.Recv, r.Spec.Buffering, r.LatencyUS, r.BandMB)
		}
	}
	section("named designs (Table 2 + variants)", named)
	section("cross-product designs (sorted by round trip)", cross)
	return b.String()
}
