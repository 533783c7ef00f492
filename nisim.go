// Package nisim is a simulation library for studying the data transfer and
// buffering alternatives of memory-bus network interfaces, reproducing
// Mukherjee & Hill, "The Impact of Data Transfer and Buffering Alternatives
// on Network Interface Design" (HPCA 1998).
//
// It simulates a parallel machine of workstation-like nodes — 1 GHz
// processor, 1 MB direct-mapped cache, MOESI snooping memory bus, 120 ns
// DRAM — whose network interface sits directly on the memory bus, connected
// by a 40 ns network with return-to-sender flow control. Nine NI models are
// provided (the paper's seven plus two §6 variants), along with the seven
// macrobenchmarks of the paper's Table 4 and both microbenchmarks of its
// Table 5.
//
// Run a built-in workload:
//
//	res, err := nisim.RunApp(nisim.Config{NI: nisim.CNI32Qm}, "em3d")
//
// Or write a program against the active-message API:
//
//	res, err := nisim.Run(cfg, func(n *nisim.Node) {
//	    n.Register(1, func(n *nisim.Node, m nisim.Message) { ... })
//	    n.Send((n.ID()+1)%n.Nodes(), 1, 64, 0)
//	    n.Barrier()
//	})
package nisim

import (
	"fmt"

	"nisim/internal/machine"
	"nisim/internal/micro"
	"nisim/internal/msglayer"
	"nisim/internal/nic"
	"nisim/internal/workload"
)

// Apps lists the seven built-in macrobenchmarks (the paper's Table 4).
func Apps() []string {
	var out []string
	for _, a := range workload.Apps() {
		out = append(out, string(a))
	}
	return out
}

// RunApp simulates one of the built-in macrobenchmarks on the configured
// machine. scale stretches or shrinks the iteration count; pass 1 (or use
// RunApp with scale via RunAppScaled) for the standard run.
func RunApp(cfg Config, app string) (Result, error) {
	return RunAppScaled(cfg, app, 1)
}

// RunAppScaled is RunApp with an iteration scale factor (0.2 runs a fifth
// of the standard iterations — handy for quick exploration).
func RunAppScaled(cfg Config, app string, scale float64) (Result, error) {
	mc, err := cfg.build()
	if err != nil {
		return Result{}, err
	}
	a, err := workload.ByName(app)
	if err != nil {
		return Result{}, err
	}
	st := workload.Run(mc, a, workload.Params{Iters: scale})
	return newResult(st), nil
}

// Message is an application message delivered to a handler. The handler
// owns it: Payload is the handler's own copy of the bytes, so it may be
// kept after the handler returns.
type Message struct {
	// Src is the sending node.
	Src int
	// Handler is the handler id it was sent to.
	Handler int
	// Payload holds the message bytes if the sender used SendBytes.
	Payload []byte
	// Len is the payload length in bytes.
	Len int
	// Arg is the sender-supplied out-of-band argument.
	Arg uint64
}

// Node is the per-node programming interface available to custom programs:
// Tempest-style active messages plus computation and synchronization.
type Node struct {
	n *machine.Node
}

// ID returns this node's id in [0, Nodes()).
func (n *Node) ID() int { return n.n.ID }

// Nodes returns the machine size.
func (n *Node) Nodes() int { return n.n.Size() }

// Compute spends the given number of 1 GHz processor cycles computing.
func (n *Node) Compute(cycles int64) { n.n.Proc.Compute(cycles) }

// NowMicros returns the current simulated time in microseconds, for
// measurements inside custom programs.
func (n *Node) NowMicros() float64 { return n.n.Proc.P.Now().Microseconds() }

// Register installs an active-message handler. Handlers run on the
// receiving node's processor and may send messages. ids must be below 200.
func (n *Node) Register(id int, h func(n *Node, m Message)) {
	if id >= msglayer.ReservedHandlerBase {
		panic(fmt.Sprintf("nisim: handler id %d is reserved", id))
	}
	n.n.EP.Register(id, func(ep *msglayer.Endpoint, m *msglayer.Message) {
		// The messaging layer only lends its payload for the handler's
		// duration; a Message owns its bytes.
		var payload []byte
		if m.Payload != nil {
			payload = append([]byte{}, m.Payload...)
		}
		h(n, Message{Src: m.Src, Handler: m.Handler, Payload: payload, Len: m.PayloadLen, Arg: m.Arg})
	})
}

// Send transmits payloadLen bytes to handler id on node dst, blocking the
// simulated processor for exactly as long as the configured NI design
// requires.
func (n *Node) Send(dst, handler, payloadLen int, arg uint64) {
	n.n.EP.Send(dst, handler, payloadLen, arg)
}

// SendBytes is Send carrying real bytes end to end.
func (n *Node) SendBytes(dst, handler int, payload []byte, arg uint64) {
	n.n.EP.SendBytes(dst, handler, payload, arg)
}

// Poll checks the NI once, dispatching a handler if a message is ready;
// it reports whether anything was processed.
func (n *Node) Poll() bool { return n.n.EP.PollOne() }

// WaitUntil polls (sleeping between arrivals) until pred holds.
func (n *Node) WaitUntil(pred func() bool) { n.n.EP.WaitUntil(pred) }

// Drain processes everything the NI currently holds.
func (n *Node) Drain() { n.n.EP.Drain() }

// Barrier synchronizes all nodes (implemented with messages through the
// same NI, as Tempest barriers were).
func (n *Node) Barrier() { n.n.Barrier() }

// Run executes program on every node of the configured machine and returns
// the run's statistics. The program runs as simulated software: every Send,
// Poll, and Compute advances simulated time according to the NI model.
func Run(cfg Config, program func(n *Node)) (Result, error) {
	mc, err := cfg.build()
	if err != nil {
		return Result{}, err
	}
	m := machine.New(mc)
	st := m.Run(func(mn *machine.Node) { program(&Node{n: mn}) })
	return newResult(st), nil
}

// RoundTripMicros measures the process-to-process round-trip latency in
// microseconds for the configured NI and payload size (the paper's Table 5
// latency microbenchmark).
func RoundTripMicros(ni NIKind, flowBuffers, payloadBytes int) (float64, error) {
	kind, err := nic.KindByName(string(ni))
	if err != nil {
		return 0, err
	}
	if flowBuffers == 0 {
		flowBuffers = 8
	}
	return micro.RoundTrip(kind, flowBuffers, payloadBytes, 600, 60).Microseconds(), nil
}

// BandwidthMBps measures the process-to-process streaming bandwidth in
// MB/s (the paper's Table 5 bandwidth microbenchmark).
func BandwidthMBps(ni NIKind, flowBuffers, payloadBytes int) (float64, error) {
	kind, err := nic.KindByName(string(ni))
	if err != nil {
		return 0, err
	}
	if flowBuffers == 0 {
		flowBuffers = 8
	}
	return micro.Bandwidth(kind, flowBuffers, payloadBytes, 200), nil
}
