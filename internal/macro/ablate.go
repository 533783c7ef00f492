package macro

import (
	"nisim/internal/machine"
	"nisim/internal/micro"
	"nisim/internal/nic"
	"nisim/internal/sim"
	"nisim/internal/workload"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out: each flips one mechanism of a winning NI design (or moves an
// NI to the I/O bus) and measures what that mechanism was buying.

// ExecCfg runs one application under an explicit machine configuration.
func ExecCfg(cfg machine.Config, app workload.App, p workload.Params) sim.Time {
	return workload.Run(cfg, app, p).ExecTime
}

// Ablation is one on/off comparison: the metric with the mechanism enabled
// (the paper's configuration) and disabled.
type Ablation struct {
	Name     string
	Metric   string
	Enabled  float64
	Disabled float64
}

// Delta returns the relative cost of disabling the mechanism (positive
// means the mechanism helps).
func (a Ablation) Delta() float64 {
	if a.Enabled == 0 {
		return 0
	}
	return a.Disabled/a.Enabled - 1
}

// prefetchKinds are the CNIs whose send-side prefetch prefetchRow ablates.
var prefetchKinds = []nic.Kind{nic.CNI512Q, nic.CNI32Qm}

// prefetchRow measures the CNI send-side prefetch: 256-byte round-trip
// latency (µs) with and without it.
func prefetchRow(kind nic.Kind) Ablation {
	on := machine.DefaultConfig(kind, 8)
	off := on
	off.NI.DisableCNIPrefetch = true
	return Ablation{
		Name:     kind.ShortName() + " send prefetch",
		Metric:   "256B rtt us",
		Enabled:  micro.RoundTripCfg(on, 256, 550, 50).Microseconds(),
		Disabled: micro.RoundTripCfg(off, 256, 550, 50).Microseconds(),
	}
}

// bypassConfigs toggle the CNI_32Q_m receive-cache bypass, measured by em3d
// execution time and by large-message bandwidth (MB/s, inverted so Delta>0
// means bypass helps).
func bypassConfigs() (on, off machine.Config) {
	on = machine.DefaultConfig(nic.CNI32Qm, 8)
	off = on
	off.NI.DisableCNIBypass = true
	return on, off
}

func bypassExecRow(p workload.Params) Ablation {
	on, off := bypassConfigs()
	return Ablation{
		Name:     "cni32qm recv-cache bypass",
		Metric:   "em3d exec us",
		Enabled:  ExecCfg(on, workload.Em3d, p).Microseconds(),
		Disabled: ExecCfg(off, workload.Em3d, p).Microseconds(),
	}
}

func bypassBwRow() Ablation {
	on, off := bypassConfigs()
	return Ablation{
		Name:   "cni32qm recv-cache bypass",
		Metric: "4096B inv-bw us/KB",
		// Invert MB/s so that "disabled is worse" reads as Delta > 0.
		Enabled:  1000 / micro.BandwidthCfg(on, 4096, 60),
		Disabled: 1000 / micro.BandwidthCfg(off, 4096, 60),
	}
}

// deadSuppressConfigs toggle dead-message suppression: without it, every
// consumed block is written back to memory on reclamation.
func deadSuppressConfigs() (on, off machine.Config) {
	on = machine.DefaultConfig(nic.CNI32Qm, 8)
	off = on
	off.NI.DisableDeadSuppress = true
	return on, off
}

func deadSuppressExecRow(p workload.Params) Ablation {
	on, off := deadSuppressConfigs()
	return Ablation{
		Name:     "cni32qm dead-message suppression",
		Metric:   "spsolve exec us",
		Enabled:  ExecCfg(on, workload.Spsolve, p).Microseconds(),
		Disabled: ExecCfg(off, workload.Spsolve, p).Microseconds(),
	}
}

func deadSuppressBwRow() Ablation {
	on, off := deadSuppressConfigs()
	return Ablation{
		Name:     "cni32qm dead-message suppression",
		Metric:   "4096B inv-bw us/KB",
		Enabled:  1000 / micro.BandwidthCfg(on, 4096, 60),
		Disabled: 1000 / micro.BandwidthCfg(off, 4096, 60),
	}
}

// CacheSizePoint is one CNI_32Q_m NI-cache capacity sample.
type CacheSizePoint struct {
	Blocks int
	RttUS  float64 // 64-byte round trip
	BwMBps float64 // 4096-byte bandwidth
	Em3dUS float64 // em3d execution time
}

// cacheSizePoint samples one CNI_32Q_m NI cache capacity — how much SRAM
// does the "CNI with cache" need before it behaves like one?
func cacheSizePoint(b int, p workload.Params) CacheSizePoint {
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	cfg.NI.CNICacheBlocks = b
	return CacheSizePoint{
		Blocks: b,
		RttUS:  micro.RoundTripCfg(cfg, 64, 550, 50).Microseconds(),
		BwMBps: micro.BandwidthCfg(cfg, 4096, 60),
		Em3dUS: ExecCfg(cfg, workload.Em3d, p).Microseconds(),
	}
}

// ThresholdPoint is one UDMA fallback-threshold sample.
type ThresholdPoint struct {
	Bytes  int
	DsmcUS float64
}

// thresholdPoint samples one UDMA small-message fallback threshold
// (§6.1.1 fixes it at 96 bytes for the macrobenchmarks).
func thresholdPoint(th int, p workload.Params) ThresholdPoint {
	cfg := machine.DefaultConfig(nic.UDMA, 8)
	cfg.NI.UDMAThresholdBytes = th
	return ThresholdPoint{
		Bytes:  th,
		DsmcUS: ExecCfg(cfg, workload.Dsmc, p).Microseconds(),
	}
}

// IOBusPoint is one NI-placement sample: the same fifo NI behind an
// I/O-bus bridge of the given extra latency.
type IOBusPoint struct {
	Kind   nic.Kind
	Bridge sim.Time
	RttUS  float64
	BwMBps float64
}

// ioBusKinds are the fifo NIs ioBusPoint moves behind an I/O bridge — the
// paper's motivation for memory-bus NIs ("I/O buses offer latencies and
// bandwidth that are a factor of two to ten worse").
var ioBusKinds = []nic.Kind{nic.CM5, nic.AP3000}

func ioBusPoint(kind nic.Kind, br sim.Time) IOBusPoint {
	cfg := machine.DefaultConfig(kind, 8)
	cfg.NI.IOBridge = br
	return IOBusPoint{
		Kind:   kind,
		Bridge: br,
		RttUS:  micro.RoundTripCfg(cfg, 64, 200, 40).Microseconds(),
		BwMBps: micro.BandwidthCfg(cfg, 256, 80),
	}
}
