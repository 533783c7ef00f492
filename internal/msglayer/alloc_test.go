package msglayer

import (
	"testing"

	"nisim/internal/cache"
	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// twoEndpoints builds a two-node machine by hand on an RDMA-send,
// coherent-receive NI over the unreliable network, running protocol with a
// 512-byte rendezvous threshold. No process is bound yet.
func twoEndpoints(t *testing.T, protocol ProtocolKind) (eps [2]*Endpoint, eng *sim.Engine) {
	eng = sim.NewEngine()
	netCfg := netsim.DefaultConfig()
	nw := netsim.New(eng, netCfg, 2, 8)
	spec := nic.Spec{Send: nic.RDMAEngine, Recv: nic.CoherentEngine, Buffering: nic.MemoryRing}
	msgCfg := DefaultConfig()
	msgCfg.Protocol = protocol
	msgCfg.RendezvousThreshold = 512

	for i := 0; i < 2; i++ {
		st := stats.NewNode()
		bus := membus.New(eng, membus.DefaultTiming(), st)
		mem := mainmem.New("dram", 120*sim.Nanosecond, eng)
		bus.MapRange(nic.DRAMBase, nic.DRAMLimit, mem)
		c := cache.New("cache", eng, bus, cache.DefaultConfig(), st)
		pr := &proc.Proc{ID: i, Eng: eng, Bus: bus, Cache: c, Stats: st, CPU: sim.GHz(1)}
		ep := nw.Endpoint(i)
		ep.Stats = st
		ni, err := nic.NewFromSpec(spec, &nic.Env{
			Eng: eng, ID: i, Bus: bus, Mem: mem, EP: ep, Stats: st,
			CPU: sim.GHz(1), Cfg: nic.DefaultConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = New(pr, ni, ep, msgCfg)
	}
	if eps[0].Protocol() != protocol {
		t.Fatalf("rig runs %v, want %v", eps[0].Protocol(), protocol)
	}
	return eps, eng
}

// poller binds a process to ep that polls and dispatches arrivals forever.
func poller(ep *Endpoint) {
	ep.pr.Bind(ep.pr.Eng.Spawn("poller", func(p *sim.Process) {
		for {
			if !ep.PollOne() {
				p.SleepAs(stats.Buffering, 100*sim.Nanosecond)
			}
		}
	}))
}

// pingPongRig runs symmetric ping-pong traffic of size-byte messages under
// protocol on twoEndpoints. round releases one ping and runs the engine
// until its pong has been handled.
func pingPongRig(t *testing.T, protocol ProtocolKind, size int) (round func(), eng *sim.Engine) {
	eps, eng := twoEndpoints(t, protocol)
	const hPing, hPong = 1, 2
	release, sent, pong := 0, 0, 0
	eps[1].Register(hPing, func(ep *Endpoint, m *Message) {
		ep.Send(m.Src, hPong, size, 0)
	})
	eps[0].Register(hPong, func(ep *Endpoint, m *Message) { pong++ })

	pongCaught := func() bool { return pong >= sent }
	p0 := eng.Spawn("n0", func(p *sim.Process) {
		for {
			if sent < release {
				sent++
				eps[0].Send(1, hPing, size, 0)
				eps[0].WaitUntil(pongCaught)
			} else if !eps[0].PollOne() {
				eps[0].pr.P.SleepAs(stats.Buffering, 100*sim.Nanosecond)
			}
		}
	})
	eps[0].pr.Bind(p0)
	poller(eps[1])

	running := func() bool { return pong < release }
	round = func() {
		release++
		eng.RunWhile(running)
		if pong < release {
			t.Fatal("round did not complete")
		}
	}
	// Warm past the done set's depth: each round completes one message per
	// endpoint, and the eviction ring must fill before the set stops
	// growing.
	for i := 0; i < doneWindow+64; i++ {
		round()
	}
	return round, eng
}

// TestRendezvousAllocFree gates the rendezvous handshake and delivery path
// at zero allocations per round once warm. The rig runs the unreliable
// network — the configuration where control frames recycle (reliability
// seals them until acked) — so every free list circulates: RTS/CTS and put
// frames through the two network endpoints' frame lists (receivers free
// what they consume), and the inbound records through each messaging
// endpoint's free list.
func TestRendezvousAllocFree(t *testing.T) {
	round, eng := pingPongRig(t, Rendezvous, 600)
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("rendezvous ping-pong round allocates %.1f times, want 0", allocs)
	}
	eng.Drain()
}

// TestEagerAllocFree gates a warm one-fragment eager ping-pong round at
// exactly two allocations: the ping's and the pong's network fragment.
// The handlers borrow the reassembly record's Message, so delivery itself
// allocates nothing.
func TestEagerAllocFree(t *testing.T) {
	round, eng := pingPongRig(t, Eager, 64)
	if allocs := testing.AllocsPerRun(200, round); allocs != 2 {
		t.Fatalf("eager ping-pong round allocates %.2f times, want 2 (one fragment each way)", allocs)
	}
	eng.Drain()
}
