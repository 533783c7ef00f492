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

// TestRendezvousAllocFree gates the rendezvous handshake and delivery path
// at zero allocations per round once warm. The rig runs the unreliable
// network — the configuration where control frames recycle (reliability
// seals them until acked) — with symmetric ping-pong traffic so every pool
// circulates: RTS/CTS frames between the two endpoints' control pools, put
// frames between the two RDMA engines' pools (receiver adoption), and the
// inbound records through each endpoint's free list. The warm-up must
// outlast the rendezvous done set's depth so its map and eviction ring
// reach their steady-state footprint.
func TestRendezvousAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	netCfg := netsim.DefaultConfig()
	nw := netsim.New(eng, netCfg, 2, 8)
	spec := nic.Spec{Send: nic.RDMAEngine, Recv: nic.CoherentEngine, Buffering: nic.MemoryRing}
	msgCfg := DefaultConfig()
	msgCfg.Protocol = Rendezvous
	msgCfg.RendezvousThreshold = 512

	var eps [2]*Endpoint
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
		eps[i] = New(pr, ni, netCfg, msgCfg)
	}
	if eps[0].Protocol() != Rendezvous {
		t.Fatal("rig did not activate the rendezvous protocol")
	}

	const hPing, hPong, size = 1, 2, 600
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
	p1 := eng.Spawn("n1", func(p *sim.Process) {
		for {
			if !eps[1].PollOne() {
				eps[1].pr.P.SleepAs(stats.Buffering, 100*sim.Nanosecond)
			}
		}
	})
	eps[1].pr.Bind(p1)

	running := func() bool { return pong < release }
	round := func() {
		release++
		eng.RunWhile(running)
		if pong < release {
			t.Fatal("round did not complete")
		}
	}
	// Warm past the done-set depth: each round completes one transfer per
	// endpoint, and the ring must fill before the set stops growing.
	for i := 0; i < rdvDoneWindow+64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("rendezvous ping-pong round allocates %.1f times, want 0", allocs)
	}
	eng.Drain()
}
