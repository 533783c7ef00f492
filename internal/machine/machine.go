// Package machine assembles the simulated parallel machine of Table 3:
// 16 workstation-like nodes, each with a 1 GHz processor, a 1 MB
// direct-mapped cache, 120 ns main memory, a 250 MHz / 256-bit MOESI
// snooping memory bus, and one of the studied NIs attached directly to that
// bus; the nodes are connected by a 40 ns network with return-to-sender
// flow control.
package machine

import (
	"fmt"
	"slices"

	"nisim/internal/cache"
	"nisim/internal/faults"
	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/msglayer"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/sim/partition"
	"nisim/internal/stats"
	"nisim/internal/trace"
)

// AppBase is the start of the per-node application data region in DRAM. It
// is offset so that small application working sets begin at cache offset
// 0x40000 (256 KB), clear of the staggered NI queue structures; large
// working sets conflict with everything, as on a real direct-mapped cache.
const AppBase membus.Addr = 0x0104_0000

// Config selects the machine to build. DefaultConfig reproduces Table 3.
type Config struct {
	Nodes int
	// NIKind selects a named NI design; ignored when NISpec is set.
	NIKind nic.Kind
	// NISpec, when non-nil, builds every node's NI from an arbitrary design
	// point of the transfer-engine × buffering-policy space instead of a
	// named Kind. The spec must Validate.
	NISpec      *nic.Spec
	FlowBuffers int // flow-control buffers per direction; netsim.Infinite allowed

	CPU    sim.Clock
	Bus    membus.Timing
	Cache  cache.Config
	MemLat sim.Time
	NI     nic.Config
	Net    netsim.Config
	Msg    msglayer.Config

	// Faults configures deterministic network fault injection. The zero
	// value (all rates zero, no outages) installs no fault plane and is
	// bit-identical to the lossless network. Nonzero fault rates normally
	// want Net.Reliability enabled too, or lost messages hang the program
	// (Run then reports a stall diagnostic instead of returning).
	Faults faults.Config

	// StallHorizon is the fault-run watchdog interval: when faults are
	// injected and the network makes no protocol progress for this long
	// while flow-control buffers are held, Run panics with the quiescence
	// diagnostic instead of livelocking on spinning software. Zero selects
	// DefaultStallHorizon; lossless runs never arm the watchdog unless
	// Watchdog forces it.
	StallHorizon sim.Time

	// Watchdog arms the stall/starvation watchdog even when no faults are
	// injected. Overload runs want this: an admission policy bouncing every
	// arrival starves the workload without a single injected fault.
	Watchdog bool

	// Tracer, when non-nil, receives a structured event line per bus
	// transaction (and any other subsystems wired to it). Off by default.
	Tracer *trace.Tracer

	// Shards splits the event engine into this many conservative-parallel
	// partitions (internal/sim/partition): nodes are divided into
	// contiguous shards, each driven by its own engine on its own worker
	// goroutine, synchronized at time-window barriers sized by the network
	// latency (the lookahead). 0 or 1 is the serial engine, which Run
	// treats as the one-shard case. Values above Nodes are clamped; a
	// machine whose Tracer is set falls back to serial automatically (the
	// tracer is one shared event stream), as does a network with no
	// positive latency to use as lookahead. Every NI spec partitions —
	// including the throttled CNI32Qm, whose credit returns ride the
	// message layer — and so does every workload. Results, watchdog
	// diagnostics included, are byte-identical across shard counts; only
	// wall-clock time changes (see DESIGN.md §10).
	Shards int
}

// DefaultStallHorizon is how long the fault-run watchdog waits for network
// progress before declaring a stall: generous against any legitimate lull
// (the longest bounce backoffs and retransmission timeouts are well under a
// millisecond on the Table 3 network).
const DefaultStallHorizon = 2 * sim.Millisecond

// DefaultStarvationTicks is the starvation patience in stall horizons:
// activity rising for this many consecutive watchdog ticks with not one
// delivery is sustained-overload starvation (a bounce/retry storm, not a
// slow receiver), distinct from livelock, where activity itself is flat.
const DefaultStarvationTicks = 8

// DefaultConfig returns the paper's system parameters with the given NI and
// flow-control buffer count.
func DefaultConfig(kind nic.Kind, flowBuffers int) Config {
	return Config{
		Nodes:       16,
		NIKind:      kind,
		FlowBuffers: flowBuffers,
		CPU:         sim.GHz(1),
		Bus:         membus.DefaultTiming(),
		Cache:       cache.DefaultConfig(),
		MemLat:      120 * sim.Nanosecond,
		NI:          nic.DefaultConfig(),
		Net:         netsim.DefaultConfig(),
		Msg:         msglayer.DefaultConfig(),
	}
}

// Node is one machine node as seen by application code.
type Node struct {
	ID   int
	Proc *proc.Proc
	NI   nic.NI
	EP   *msglayer.Endpoint

	mach         *Machine
	barrierEpoch int // releases seen
	barrierCount int // arrivals seen (coordinator only)
}

// Machine is an assembled system ready to run one program.
type Machine struct {
	// Eng is the engine of shard 0 — the only engine when the machine is
	// serial (Shards <= 1, the default).
	Eng *sim.Engine
	// Engines holds one engine per shard; Engines[0] == Eng. Serial
	// machines have exactly one.
	Engines []*sim.Engine
	Cfg     Config
	Nodes   []*Node
	Net     *netsim.Network
	Stats   *stats.Machine

	group   *partition.Group // nil when serial
	shardOf []int            // node id -> shard index
	ran     bool
}

// Shards returns the number of engine shards actually in use (1 for a
// serial machine, even when Config.Shards requested more but the
// configuration forced the serial fallback).
func (m *Machine) Shards() int { return len(m.Engines) }

// effectiveShards clamps the requested shard count to what the
// configuration can partition: at most one shard per node, serial when the
// network has no positive latency to serve as lookahead, and serial when a
// tracer is attached (the tracer is a single shared event stream).
func effectiveShards(cfg Config) int {
	s := cfg.Shards
	if s < 1 {
		s = 1
	}
	if s > cfg.Nodes {
		s = cfg.Nodes
	}
	if cfg.Net.Latency <= 0 || cfg.Tracer != nil {
		s = 1
	}
	return s
}

// New builds a machine per cfg.
func New(cfg Config) *Machine {
	if cfg.Nodes < 1 {
		panic("machine: need at least one node")
	}
	return build(cfg, effectiveShards(cfg))
}

func build(cfg Config, shards int) *Machine {
	engines := make([]*sim.Engine, shards)
	for s := range engines {
		engines[s] = sim.NewEngine()
	}
	// Contiguous balanced split: node i belongs to shard i*S/N.
	shardOf := make([]int, cfg.Nodes)
	for i := range shardOf {
		shardOf[i] = i * shards / cfg.Nodes
	}
	m := &Machine{
		Eng:     engines[0],
		Engines: engines,
		shardOf: shardOf,
		Cfg:     cfg,
		Net:     netsim.New(engines[0], cfg.Net, cfg.Nodes, cfg.FlowBuffers),
		Stats:   stats.NewMachine(cfg.Nodes),
	}
	if shards > 1 {
		m.group = partition.New(engines, shardOf, cfg.Net.Latency)
		m.Net.Partition(m.group, func(node int) *sim.Engine { return engines[shardOf[node]] })
	}
	for i := 0; i < cfg.Nodes; i++ {
		eng := engines[shardOf[i]]
		st := m.Stats.Nodes[i]
		bus := membus.New(eng, cfg.Bus, st)
		if cfg.Tracer != nil && cfg.Tracer.Enabled(trace.Bus) {
			i := i
			bus.Trace = func(format string, args ...any) {
				cfg.Tracer.Event(eng.Now(), trace.Bus, i, format, args...)
			}
		}
		mem := mainmem.New(fmt.Sprintf("dram-%d", i), cfg.MemLat, eng)
		bus.MapRange(nic.DRAMBase, nic.DRAMLimit, mem)
		c := cache.New(fmt.Sprintf("cache-%d", i), eng, bus, cfg.Cache, st)
		pr := &proc.Proc{ID: i, Eng: eng, Bus: bus, Cache: c, Stats: st, CPU: cfg.CPU}
		ep := m.Net.Endpoint(i)
		ep.Stats = st
		env := &nic.Env{
			Eng: eng, ID: i, Bus: bus, Mem: mem, EP: ep, Stats: st, CPU: cfg.CPU, Cfg: cfg.NI,
		}
		if cfg.Tracer != nil && cfg.Tracer.Enabled(trace.NIC) {
			i := i
			env.Trace = func(format string, args ...any) {
				cfg.Tracer.Event(eng.Now(), trace.NIC, i, format, args...)
			}
		}
		var ni nic.NI
		if cfg.NISpec != nil {
			var err error
			ni, err = nic.NewFromSpec(*cfg.NISpec, env)
			if err != nil {
				panic(fmt.Sprintf("machine: %v", err))
			}
		} else {
			ni = nic.New(cfg.NIKind, env)
		}
		node := &Node{ID: i, Proc: pr, NI: ni, mach: m}
		node.EP = msglayer.New(pr, ni, ep, cfg.Msg)
		m.Nodes = append(m.Nodes, node)
	}
	if !cfg.Faults.Zero() {
		inj := faults.New(cfg.Faults)
		// Fork every per-endpoint fault stream up front: stream creation is
		// a pure function of seed and id, and eager forking keeps the
		// stream map read-only once shards start running concurrently.
		inj.Prefork(cfg.Nodes)
		m.Net.SetFaultPlane(inj)
	}
	return m
}

// Run executes prog on every node (as that node's processor software) until
// all instances return, then records the parallel execution time and tears
// the machine down. A Machine runs exactly one program.
//
// A serial machine is the one-shard case of a partitioned one: both share
// the completion ledger, the watchdog and the exit path, and differ only in
// how simulated time advances to the next watchdog sample.
func (m *Machine) Run(prog func(n *Node)) *stats.Machine {
	if m.ran {
		panic("machine: Run called twice")
	}
	m.ran = true
	m.registerBarrier()

	// Per-shard completion counts and finish times: each is written only
	// within its own shard's execution, and a partitioned run reads them
	// only at barriers.
	N := len(m.Nodes)
	done := make([]int, m.Shards())
	doneAt := make([]sim.Time, m.Shards())
	for _, n := range m.Nodes {
		s := m.shardOf[n.ID]
		eng := m.Engines[s]
		p := eng.Spawn(fmt.Sprintf("app-%d", n.ID), func(p *sim.Process) {
			prog(n)
			done[s]++
			doneAt[s] = eng.Now()
		})
		n.Proc.Bind(p)
	}
	finished := func() int {
		t := 0
		for _, d := range done {
			t += d
		}
		return t
	}

	wd := newWatchdog(m.Cfg)
	if m.group == nil {
		// The serial watchdog is an engine event every horizon. RunWhile
		// stops before the next event once every node is done or a sample
		// has failed, so a tick never sees either; it stops rescheduling
		// once it is the only event source, handing stall detection back
		// to the queue-drain check below.
		if wd.horizon > 0 {
			m.Eng.AfterEvent(wd.horizon, watchdogTick, &serialTick{m: m, wd: &wd, done: &done[0]}, 0)
		}
		m.Eng.RunWhile(func() bool { return done[0] < N && wd.stalled == "" })
	} else {
		// The partitioned watchdog samples at window barriers, with windows
		// capped at the next sampling boundary so barriers land on the
		// exact sim times the serial tick fires at.
		next := wd.horizon
		ctrl := partition.Control{AfterWindow: func(end sim.Time) bool {
			if finished() >= N {
				return false
			}
			if wd.horizon > 0 && end == next {
				next += wd.horizon
				return wd.sample(m, end, finished())
			}
			return true
		}}
		if wd.horizon > 0 {
			ctrl.CapWindow = func(now, proposed sim.Time) sim.Time { return min(proposed, next) }
		}
		// Close on every exit path, panics included: an escaped panic must
		// not leave shard workers spinning on the barrier epoch. Close is
		// idempotent, so the failure path inside the group closing first is
		// fine.
		func() {
			defer m.group.Close()
			m.group.Run(ctrl)
		}()
	}

	switch {
	case wd.stalled != "":
	case finished() < N:
		// Every event queue drained with nodes still running: a lost
		// message, ack, or bounce stranded them. Fail loudly with the
		// quiescence diagnostic instead of silently returning a truncated
		// run.
		wd.stalled = fmt.Sprintf("machine: simulation stalled with %d/%d nodes finished at %v\n%s",
			finished(), N, m.Eng.Now(), m.Eng.StallReport())
	default:
		m.Stats.ExecTime = slices.Max(doneAt)
	}
	for _, eng := range m.Engines {
		eng.Drain()
	}
	if wd.stalled != "" {
		panic(wd.stalled)
	}
	return m.Stats
}

// watchdog is the livelock/starvation detector, armed for fault runs and
// on request (Config.Watchdog). A lost message with the reliability layer
// off leaves software spinning (poll-while-blocked), so the event queue
// never drains and Run's queue-drain check never fires. Instead, network
// progress is sampled every horizon. Two equal activity samples with
// flow-control buffers still held mean nothing can ever advance
// (livelock). Activity rising sample after sample with not one delivery is
// the other failure mode — a sustained bounce/retransmission storm
// starving the workload — and is diagnosed distinctly.
type watchdog struct {
	horizon       sim.Time // sampling interval; zero when disarmed
	last, lastDel int64    // the previous sample's activity and deliveries
	starved       int64    // consecutive samples of activity without delivery
	stalled       string   // the diagnostic, once a sample has failed
}

func newWatchdog(cfg Config) watchdog {
	if cfg.Faults.Zero() && !cfg.Watchdog {
		return watchdog{}
	}
	w := watchdog{horizon: cfg.StallHorizon, last: -1, lastDel: -1}
	if w.horizon <= 0 {
		w.horizon = DefaultStallHorizon
	}
	return w
}

// serialTick is the receiver of the serial engine's watchdog tick.
type serialTick struct {
	m    *Machine
	wd   *watchdog
	done *int // nodes finished; the serial machine is shard 0
}

// watchdogTick samples progress and re-arms itself every horizon while the
// run may go on and other events remain.
func watchdogTick(recv any, _ uint64) {
	t := recv.(*serialTick)
	if t.wd.sample(t.m, t.m.Eng.Now(), *t.done) && t.m.Eng.Pending() > 0 {
		t.m.Eng.AfterEvent(t.wd.horizon, watchdogTick, t, 0)
	}
}

// sample takes one progress sample at now, with done of the machine's
// nodes finished, and reports whether the run may go on. When it returns
// false, stalled holds the livelock or starvation diagnostic.
func (w *watchdog) sample(m *Machine, now sim.Time, done int) bool {
	act, del := m.Net.Progress()
	switch {
	case act == w.last:
		if r := m.Eng.StallReport(); r != "" {
			w.stalled = fmt.Sprintf("machine: no network progress for %v with %d/%d nodes finished at %v\n%s",
				w.horizon, done, len(m.Nodes), now, r)
			return false
		}
	case del == w.lastDel:
		w.starved++
		if w.starved >= DefaultStarvationTicks {
			if r := m.Net.StarvationReport(); r != "" {
				w.stalled = fmt.Sprintf("machine: sustained overload starvation — network churning for %v without a delivery, %d/%d nodes finished at %v\n%s",
					sim.Time(w.starved)*w.horizon, done, len(m.Nodes), now, r)
				return false
			}
		}
	default:
		w.starved = 0
	}
	w.last, w.lastDel = act, del
	return true
}

// Reserved messaging-layer handler ids (applications use ids below 200).
const (
	HBarrierArrive  = 250
	HBarrierRelease = 251
)

func (m *Machine) registerBarrier() {
	for _, n := range m.Nodes {
		n := n
		n.EP.Register(HBarrierArrive, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			n.barrierCount++
		})
		n.EP.Register(HBarrierRelease, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			n.barrierEpoch++
		})
	}
}

// Size returns the number of nodes in the machine.
func (n *Node) Size() int { return len(n.mach.Nodes) }

// SettleSends services the NI until every send this node issued has
// settled: all outgoing flow-control buffers free (delivered, acked, or
// abandoned), the NI-side send queue drained, and no bounced message
// awaiting a software re-push. A program whose *last* sends can bounce —
// an overloaded receiver returning the final barrier release, say — must
// settle before returning, or the bounce lands in the software retry queue
// of a processor that will never poll again and the peer hangs. Closed-loop
// programs never see this (a quiescent receiver has buffer space); open-loop
// overload programs call it before exiting.
func (n *Node) SettleSends() {
	ep := n.mach.Net.Endpoint(n.ID)
	for ep.OutFree() < ep.Buffers() || !n.NI.Idle() || n.NI.NeedsRetry() {
		if !n.EP.PollOne() {
			n.Proc.P.SleepAs(stats.Compute, 200*sim.Nanosecond)
		}
	}
}

// Barrier synchronizes all nodes through the messaging layer: everyone
// sends an arrival to node 0; node 0 broadcasts a release. The traffic (and
// its cost on the node's NI) is part of the simulation, as it was for
// Tempest programs.
func (n *Node) Barrier() {
	N := len(n.mach.Nodes)
	if N == 1 {
		return
	}
	if n.ID == 0 {
		n.EP.WaitUntil(func() bool { return n.barrierCount >= N-1 })
		n.barrierCount -= N - 1
		for i := 1; i < N; i++ {
			n.EP.Send(i, HBarrierRelease, 4, 0)
		}
		return
	}
	target := n.barrierEpoch + 1
	n.EP.Send(0, HBarrierArrive, 4, 0)
	n.EP.WaitUntil(func() bool { return n.barrierEpoch >= target })
}
