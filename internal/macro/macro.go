// Package macro runs the macrobenchmark experiments behind the paper's
// Figure 1 (data-transfer/buffering share of execution time), Figure 3a
// (fifo NIs across flow-control buffer counts), Figure 3b (coherent NIs),
// and Figure 4 (single-cycle NI_2w versus CNI_32Q_m).
package macro

import (
	"nisim/internal/machine"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/stats"
	"nisim/internal/workload"
)

// Exec runs one (NI, flow-buffer, application) cell and returns machine
// statistics.
func Exec(kind nic.Kind, flowBufs int, app workload.App, p workload.Params) *stats.Machine {
	cfg := machine.DefaultConfig(kind, flowBufs)
	return workload.Run(cfg, app, p)
}

// Figure1Row is one application's bar in Figure 1: of the execution time on
// a CM-5-like NI with one flow-control buffer, the share attributable to NI
// data transfer (the processor-time the transfer mechanism costs) and to
// buffering (the time that disappears when flow-control buffering is made
// infinite).
type Figure1Row struct {
	App               workload.App
	TransferFraction  float64
	BufferingFraction float64
}

// BufferLevels are the flow-control buffer counts of Figure 3a and
// Figure 4 (Infinite renders as the black bar).
var BufferLevels = []int{1, 2, 8, netsim.Infinite}

// Cell is one (NI, buffers, app) execution time, normalized by the caller.
type Cell struct {
	Kind nic.Kind
	Bufs int
	App  workload.App
	// Normalized is execution time relative to the experiment's baseline.
	Normalized float64
	// ExecUS is the raw execution time in microseconds.
	ExecUS float64
}
