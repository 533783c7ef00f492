// Package micro implements the paper's two microbenchmarks (§6.1):
// process-to-process round-trip latency and process-to-process bandwidth,
// the rows of Table 5.
package micro

import (
	"nisim/internal/machine"
	"nisim/internal/msglayer"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/sim"
)

const (
	hPing = 1
	hPong = 2
	hData = 3
	hStop = 4
)

// RoundTrip measures the mean process-to-process round-trip latency for
// payload-byte messages between two nodes (warmup + rounds measured round
// trips; the paper's numbers include the messaging-layer copy overheads at
// both ends, as do ours). For the Udma-based NI the microbenchmark always
// uses the UDMA mechanism — the paper's Table 5 exposes its initiation
// overhead at small sizes; only the macrobenchmarks use the 96-byte
// fallback threshold.
func RoundTrip(kind nic.Kind, flowBufs, payload, warmup, rounds int) sim.Time {
	cfg := machine.DefaultConfig(kind, flowBufs)
	if kind == nic.UDMA {
		cfg.NI.UDMAThresholdBytes = 0
	}
	return RoundTripCfg(cfg, payload, warmup, rounds)
}

// RoundTripCfg is RoundTrip with an explicit machine configuration (used by
// the ablation studies). The node count is forced to two.
func RoundTripCfg(cfg machine.Config, payload, warmup, rounds int) sim.Time {
	cfg.Nodes = 2
	m := machine.New(cfg)

	pongs := 0
	for _, n := range m.Nodes {
		n.EP.Register(hPing, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			ep.Send(msg.Src, hPong, msg.PayloadLen, 0)
		})
		n.EP.Register(hPong, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			pongs++
		})
	}

	var total sim.Time
	m.Run(func(n *machine.Node) {
		if n.ID != 0 {
			n.Barrier()
			return
		}
		for i := 0; i < warmup+rounds; i++ {
			target := pongs + 1
			start := n.Proc.P.Now()
			n.EP.Send(1, hPing, payload, 0)
			n.EP.WaitUntil(func() bool { return pongs >= target })
			if i >= warmup {
				total += n.Proc.P.Now() - start
			}
		}
		n.Barrier()
	})
	return total / sim.Time(rounds)
}

// Bandwidth measures the process-to-process streaming bandwidth in
// megabytes per second: node 0 sends count messages of payload bytes to
// node 1 as fast as the NI allows; the clock stops when node 1 has consumed
// the last byte.
func Bandwidth(kind nic.Kind, flowBufs, payload, count int) float64 {
	cfg := machine.DefaultConfig(kind, flowBufs)
	if kind == nic.UDMA {
		cfg.NI.UDMAThresholdBytes = 0
	}
	return BandwidthCfg(cfg, payload, count)
}

// BandwidthCfg is Bandwidth with an explicit machine configuration (used by
// the ablation studies). The node count is forced to two.
func BandwidthCfg(cfg machine.Config, payload, count int) float64 {
	cfg.Nodes = 2
	m := machine.New(cfg)

	received := 0
	var firstSend, lastRecv sim.Time
	for _, n := range m.Nodes {
		n.EP.Register(hData, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			received++
			lastRecv = ep.Proc().P.Now()
		})
	}

	m.Run(func(n *machine.Node) {
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

	elapsed := lastRecv - firstSend
	if elapsed <= 0 {
		return 0
	}
	bytes := float64(payload+netsim.HeaderBytes) * float64(count)
	return bytes / (float64(elapsed) / float64(sim.Second)) / 1e6
}

// Table5Row holds one NI's microbenchmark results.
type Table5Row struct {
	Kind        nic.Kind
	LatencyUS   map[int]float64 // payload bytes -> round-trip microseconds
	BandwidthMB map[int]float64 // payload bytes -> MB/s
}

// LatencyPayloads and BandwidthPayloads are the paper's Table 5 columns.
var (
	LatencyPayloads   = []int{8, 64, 256}
	BandwidthPayloads = []int{8, 64, 256, 4096}
)
