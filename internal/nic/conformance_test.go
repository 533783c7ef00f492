package nic

import (
	"testing"

	"nisim/internal/cache"
	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// newTwoNodesSpec is newTwoNodes for an arbitrary design point.
func newTwoNodesSpec(t *testing.T, spec Spec, bufs int, mutate func(*Config)) *twoNodes {
	t.Helper()
	return newTwoNodesNet(t, spec, bufs, netsim.DefaultConfig(), mutate)
}

// newTwoNodesNet is newTwoNodesSpec with the network configuration exposed,
// for scenarios that need the reliability layer or non-default link timing.
func newTwoNodesNet(t *testing.T, spec Spec, bufs int, netCfg netsim.Config, mutate func(*Config)) *twoNodes {
	t.Helper()
	eng := sim.NewEngine()
	r := &twoNodes{eng: eng, net: netsim.New(eng, netCfg, 2, bufs)}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	for i := 0; i < 2; i++ {
		st := stats.NewNode()
		bus := membus.New(eng, membus.DefaultTiming(), st)
		mem := mainmem.New("dram", 120*sim.Nanosecond, eng)
		bus.MapRange(DRAMBase, DRAMLimit, mem)
		c := cache.New("cache", eng, bus, cache.DefaultConfig(), st)
		pr := &proc.Proc{ID: i, Eng: eng, Bus: bus, Cache: c, Stats: st, CPU: sim.GHz(1)}
		ep := r.net.Endpoint(i)
		ep.Stats = st
		ni, err := NewFromSpec(spec, &Env{Eng: eng, ID: i, Bus: bus, Mem: mem, EP: ep, Stats: st, CPU: sim.GHz(1), Cfg: cfg})
		if err != nil {
			t.Fatalf("NewFromSpec(%s): %v", spec.Name(), err)
		}
		r.nis[i] = ni
		r.procs[i] = pr
		r.nodes[i] = st
	}
	return r
}

// TestSpecConformance drives every named Kind and every valid cross-product
// spec through one send/poll/recv/bounce/drain scenario and checks the NI
// contract invariants that hold for all designs:
//
//   - A poll agrees with Pending: a message comes back exactly when Pending
//     was true immediately before the call (no Recv without Pending).
//   - Bounced messages are eventually redelivered: every sent message
//     arrives exactly once, even when the sleeping receiver forces bounces.
//   - NeedsRetry is true only under processor-involved buffering (FifoVM);
//     ring-buffered designs never ask the software to retry.
//   - Idle implies no queued sends: the drain spin after the last delivery
//     terminates with the send side idle.
func TestSpecConformance(t *testing.T) {
	type point struct {
		name string
		spec Spec
	}
	var points []point
	for _, k := range Kinds() {
		points = append(points, point{k.ShortName(), SpecFor(k)})
	}
	for _, s := range CrossSpecs() {
		points = append(points, point{s.Name(), s})
	}
	const (
		count   = 12
		payload = 112 // >1 block, >UDMA threshold: exercises every engine's large path
	)
	for _, pt := range points {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			if err := pt.spec.Validate(); err != nil {
				t.Fatalf("invalid spec: %v", err)
			}
			r := newTwoNodesSpec(t, pt.spec, 2, nil)
			fifoVM := pt.spec.Buffering == FifoVM
			idleDrained := false
			r.run(t,
				func(pr *proc.Proc, ni NI) {
					q := &poller{pr: pr, ni: ni}
					// poll services software retries, which only
					// processor-involved buffering asks for.
					poll := func() {
						if ni.NeedsRetry() && !fifoVM {
							t.Error("ring-buffered NI reported processor retry work")
						}
						if _, ok := q.poll(); !ok {
							pr.P.SleepAs(stats.Buffering, 100*sim.Nanosecond)
						}
					}
					for i := 0; i < count; i++ {
						m := netsim.NewSized(0, 1, 1, payload)
						for !ni.CanSend(m) {
							poll()
						}
						sendOn(pr, ni, m)
					}
					// Drain: service software retries until the whole batch has
					// been delivered network-wide, then wait for the send side
					// to go idle.
					for r.net.Delivered() < count {
						poll()
					}
					for spin := 0; !ni.Idle(); spin++ {
						if spin > 100000 {
							t.Error("send side never went idle after the last delivery")
							return
						}
						pr.P.SleepAs(stats.Buffering, 100*sim.Nanosecond)
					}
					idleDrained = true
				},
				func(pr *proc.Proc, ni NI) {
					// Sleep first so the two flow-control buffers overflow and
					// fifo-buffered designs must bounce.
					pr.P.SleepAs(stats.Compute, 20*sim.Microsecond)
					got := 0
					// Exercise the blocking receive path once.
					if m := recvOn(pr, ni); m == nil {
						t.Error("Recv returned nil")
					} else {
						got++
					}
					q := &poller{pr: pr, ni: ni}
					for got < count {
						pending := ni.Pending()
						m, _ := q.poll()
						if (m != nil) != pending {
							t.Errorf("poll returned %v with Pending()=%v", m, pending)
						}
						if m != nil {
							got++
							continue
						}
						pr.P.SleepAs(stats.Compute, 200*sim.Nanosecond)
					}
					if ni.Pending() {
						t.Error("Pending still true after the whole batch was consumed")
					}
					if m, _ := q.poll(); m != nil {
						t.Error("poll produced a message beyond the sent batch")
					}
				})
			if !idleDrained {
				t.Fatal("sender never finished draining")
			}
			if got := r.nodes[1].FragmentsReceived; got != count {
				t.Fatalf("received %d fragments, want %d (bounced messages lost?)", got, count)
			}
			if fifoVM {
				if r.nodes[0].Bounces == 0 {
					t.Error("fifo-buffered design never bounced despite the sleeping receiver")
				}
				if r.nodes[0].Retries == 0 {
					t.Error("fifo-buffered design never needed a software retry")
				}
			} else if r.nodes[0].Retries != 0 {
				t.Errorf("ring-buffered design charged %d software retries", r.nodes[0].Retries)
			}
		})
	}
}

// stormPlane is a fault plane that returns every data message injected by
// endpoint 0 on the bounce network, modeling a receiver refusing all
// traffic. Control messages pass untouched.
type stormPlane struct{}

func (stormPlane) Inject(now sim.Time, m *netsim.Message) netsim.FaultVerdict {
	if m.Src == 0 {
		return netsim.FaultVerdict{ForceBounce: true}
	}
	return netsim.FaultVerdict{}
}
func (stormPlane) Eject(now sim.Time, m *netsim.Message) netsim.FaultVerdict {
	return netsim.FaultVerdict{}
}
func (stormPlane) DropControl(now sim.Time, kind netsim.ControlKind, m *netsim.Message) bool {
	return false
}

// TestSpecConformanceBounceStorm drives every composed design point — the
// nine named kinds and the full cross product — through a sustained bounce
// storm: every injection from node 0 is returned to sender, forever. With
// a per-message deadline configured, every spec must degrade gracefully:
// the sends are abandoned with deadline-exceeded delivery errors, the
// network drains to quiescence, and the run terminates. No design may
// silently hang or spin past the deadline.
func TestSpecConformanceBounceStorm(t *testing.T) {
	type point struct {
		name string
		spec Spec
	}
	var points []point
	for _, k := range Kinds() {
		points = append(points, point{k.ShortName(), SpecFor(k)})
	}
	for _, s := range CrossSpecs() {
		points = append(points, point{s.Name(), s})
	}
	const (
		count    = 4
		payload  = 112
		deadline = 60 * sim.Microsecond
	)
	for _, pt := range points {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			netCfg := netsim.DefaultConfig()
			netCfg.Reliability = netsim.ReliabilityConfig{
				Enabled: true, AckTimeout: 4 * sim.Microsecond,
				TimeoutCap: 64 * sim.Microsecond, MaxAttempts: 16,
				Deadline: deadline,
			}
			r := newTwoNodesNet(t, pt.spec, 2, netCfg, nil)
			r.net.Endpoint(0).Fault = stormPlane{}
			senderDone := false
			r.run(t,
				func(pr *proc.Proc, ni NI) {
					defer func() { senderDone = true }()
					q := &poller{pr: pr, ni: ni}
					for i := 0; i < count; i++ {
						m := netsim.NewSized(0, 1, 1, payload)
						for spin := 0; !ni.CanSend(m); spin++ {
							if spin > 100000 {
								t.Error("CanSend never came true under the storm")
								return
							}
							if _, ok := q.poll(); !ok {
								pr.P.SleepAs(stats.Buffering, 100*sim.Nanosecond)
							}
						}
						sendOn(pr, ni, m)
					}
					// Every send must terminate in a delivery error: service
					// software bounce retries until the deadline abandons them.
					for spin := 0; len(r.net.Failures()) < count; spin++ {
						if spin > 100000 {
							t.Errorf("only %d/%d sends abandoned under the storm", len(r.net.Failures()), count)
							return
						}
						if _, ok := q.poll(); !ok {
							pr.P.SleepAs(stats.Buffering, 100*sim.Nanosecond)
						}
					}
				},
				func(pr *proc.Proc, ni NI) {
					q := &poller{pr: pr, ni: ni}
					for spin := 0; !senderDone; spin++ {
						if spin > 100000 {
							t.Error("receiver never released: sender stuck")
							return
						}
						if m, _ := q.poll(); m != nil {
							t.Error("storm delivered a message despite bouncing every injection")
						}
						pr.P.SleepAs(stats.Compute, 1*sim.Microsecond)
					}
				})
			if r.net.Delivered() != 0 {
				t.Errorf("%d messages delivered through a total bounce storm", r.net.Delivered())
			}
			if len(r.net.Failures()) != count {
				t.Fatalf("%d delivery errors, want %d", len(r.net.Failures()), count)
			}
			for _, e := range r.net.Failures() {
				if e.Reason != netsim.ReasonDeadline {
					t.Errorf("send abandoned for %q, want %q", e.Reason, netsim.ReasonDeadline)
				}
			}
			if r.nodes[0].ForcedBounces == 0 || r.nodes[0].Bounces == 0 {
				t.Errorf("storm produced no bounces: forced=%d bounces=%d",
					r.nodes[0].ForcedBounces, r.nodes[0].Bounces)
			}
			// Detection-or-drain: once every send is abandoned the network
			// must be quiescent — no stranded buffer, timer, or retry.
			if rep := r.net.QuiescenceReport(); rep != "" {
				t.Errorf("network not quiescent after the storm resolved:\n%s", rep)
			}
		})
	}
}

// TestCrossSpecCount pins the size of the swept design space: the valid
// cross product beyond the nine named points must stay large enough for
// nisim designspace's acceptance floor (>= 12 specs).
func TestCrossSpecCount(t *testing.T) {
	cross := CrossSpecs()
	if len(cross) < 12 {
		t.Fatalf("only %d cross-product specs, want >= 12", len(cross))
	}
	seen := make(map[string]bool)
	for _, s := range cross {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
		if KindOf(s) != Custom {
			t.Errorf("%s duplicates a named kind", s.Name())
		}
		if seen[s.Name()] {
			t.Errorf("duplicate spec name %s", s.Name())
		}
		seen[s.Name()] = true
	}
	// And the named points must round-trip through their specs.
	for _, k := range Kinds() {
		if got := KindOf(SpecFor(k)); got != k {
			t.Errorf("SpecFor(%s) resolves to %v", k.ShortName(), got)
		}
		if SpecFor(k).Name() != k.ShortName() {
			t.Errorf("SpecFor(%s).Name() = %q", k.ShortName(), SpecFor(k).Name())
		}
	}
}

// TestSendWithoutCanSendPanics checks the NI contract's preconditions on
// every send path: Send requires CanSend and Put requires CanPut, so a call
// that would have to wait for its resource panics rather than waiting. The
// sender fills one resource (the fifo's one outgoing buffer, a two-block
// coherent send ring, a two-block throttle credit, a one-entry RDMA
// descriptor ring) while node 1 never consumes, then calls once more.
func TestSendWithoutCanSendPanics(t *testing.T) {
	rdma := Spec{Send: RDMAEngine, Recv: CoherentEngine, Buffering: NIRing}
	type sender struct {
		can  func(ni NI, m *netsim.Message) bool
		call func(pr *proc.Proc, ni NI, m *netsim.Message)
		want string
	}
	send := sender{
		func(ni NI, m *netsim.Message) bool { return ni.CanSend(m) },
		func(pr *proc.Proc, ni NI, m *netsim.Message) { sendOn(pr, ni, m) },
		"nic: Send without CanSend",
	}
	put := sender{
		func(ni NI, _ *netsim.Message) bool { return ni.(RDMACapable).RDMA().CanPut() },
		func(pr *proc.Proc, ni NI, m *netsim.Message) {
			ni.(RDMACapable).RDMA().Put(pr, PutOp{Dst: 1, PayloadLen: m.PayloadLen})
		},
		"nic: Put without CanPut",
	}
	for _, c := range []struct {
		name   string
		spec   Spec
		mutate func(*Config)
		// full reports whether the resource under test is what refuses.
		full func(x *composed) bool
		sender
	}{
		{"fifo", SpecFor(CM5), nil,
			func(x *composed) bool { return x.env.EP.OutFree() == 0 }, send},
		{"ring", SpecFor(CNI512Q), func(c *Config) { c.CNIQueueBlocks = 2 },
			func(x *composed) bool { r := &x.coh.sendRing; return r.tail-r.head == r.cap }, send},
		{"throttle", SpecFor(CNI32QmThrottle), func(c *Config) { c.CNICacheBlocks = 2 },
			func(x *composed) bool { return x.coh.outstanding[1] == 2 }, send},
		{"rdma", rdma, func(c *Config) { c.RDMADescRing = 1 },
			func(x *composed) bool { return x.rdma.descQ.len() == 1 }, send},
		{"put", rdma, func(c *Config) { c.RDMADescRing = 1 },
			func(x *composed) bool { return x.rdma.descQ.len() == 1 }, put},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := newTwoNodesSpec(t, c.spec, 1, c.mutate)
			defer r.eng.Drain()
			full := false
			r.procs[0].Bind(r.eng.Spawn("n0", func(*sim.Process) {
				pr, ni := r.procs[0], r.nis[0]
				m := netsim.NewSized(0, 1, 1, 8)
				for c.can(ni, m) {
					c.call(pr, ni, m)
					m = netsim.NewSized(0, 1, 1, 8)
				}
				full = c.full(ni.(*composed))
				c.call(pr, ni, m)
			}))
			r.procs[1].Bind(r.eng.Spawn("n1", func(p *sim.Process) { p.Park() }))
			defer func() {
				if got := recover(); got != c.want {
					t.Fatalf("recovered %v, want the panic %q", got, c.want)
				}
				if !full {
					t.Fatal("the call was refused by another resource than the one under test")
				}
			}()
			r.eng.Run()
		})
	}
}

// TestPollWithoutPendingPanics checks Poll's precondition on a fifo and a
// coherent receive side: with nothing to receive, Poll panics rather than
// charging a miss; an unsuccessful poll is PollMiss.
func TestPollWithoutPendingPanics(t *testing.T) {
	for _, k := range []Kind{CM5, CNI512Q} {
		k := k
		t.Run(k.ShortName(), func(t *testing.T) {
			r := newTwoNodes(t, k, 1, nil)
			defer r.eng.Drain()
			r.procs[0].Bind(r.eng.Spawn("n0", func(*sim.Process) { r.nis[0].Poll(r.procs[0], nil, nil) }))
			defer func() {
				if got, want := recover(), "nic: Poll without Pending"; got != want {
					t.Fatalf("recovered %v, want the panic %q", got, want)
				}
			}()
			r.eng.Run()
		})
	}
}
