package nic

import (
	"testing"

	"nisim/internal/netsim"
	"nisim/internal/sim"
)

// TestRecvWaitDrain kills a process while an NI call of it runs in event
// context, at each kind of continuation a call can have pending, and
// fires the continuations that run in event context: after Drain none
// schedules an event, resumes the dead process or charges it time, and
// the process has unwound through its deferred function.
//
// On the fifo NIs node 0 sends two messages and then receives. Node 1
// never receives, so node 0's second message, sent once the ack of the
// first frees node 0's one outgoing buffer, bounces off node 1's one full
// buffer again and again. The cuts: the send's prologue train (before the
// claim of the outgoing buffer), its push train, the receive's wait for an
// arrival or a bounce, and a re-push during that wait; on UDMA at 248 B,
// the send's DMA path (the bus-master handoff, or the block chain). On the
// receive side node 1 sends node 0 one message while node 0 waits in its
// receive: the UDMA receive's block chain, and a coherent NI's wait for a
// deliverable message and its consume train.
func TestRecvWaitDrain(t *testing.T) {
	type cut struct {
		kind    Kind
		payload int
		name    string
		sending bool // node 0 sends, then receives; else node 1 sends
		at      func(x *composed) bool
	}
	fifoCall := func(x *composed) *fifoCall {
		if x.hw.cpu == nil {
			return nil
		}
		return &x.hw.cpu.call
	}
	var cuts []cut
	for _, k := range []Kind{CM5, AP3000, UDMA} {
		cuts = append(cuts,
			cut{k, 64, "prologue", true, func(x *composed) bool {
				c := fifoCall(x)
				return c != nil && c.m != nil && x.env.EP.OutFree() == 1
			}},
			cut{k, 64, "push", true, func(x *composed) bool {
				c := fifoCall(x)
				return c != nil && c.m != nil && x.env.EP.OutFree() == 0
			}},
			cut{k, 64, "wait", true, func(x *composed) bool {
				return x.hw.cpu != nil && x.hw.cpu.spin.waiting && x.env.Stats.Retries > 3
			}},
			cut{k, 64, "retry", true, func(x *composed) bool {
				return x.hw.cpu != nil && x.hw.cpu.spin.m != nil && x.env.Stats.Retries > 3
			}})
	}
	udma := func(x *composed) *udmaEngine { return x.send.(*udmaEngine) }
	cuts = append(cuts,
		cut{UDMA, 248, "dma-switch", true, func(x *composed) bool {
			return fifoCall(x) != nil && fifoCall(x).m != nil && udma(x).stage == udmaBlocks
		}},
		cut{UDMA, 248, "dma-send", true, func(x *composed) bool {
			return fifoCall(x) != nil && fifoCall(x).m != nil && udma(x).stage == udmaStatus && udma(x).dmaMsg != nil
		}},
		cut{UDMA, 248, "dma-recv", false, func(x *composed) bool {
			return fifoCall(x) != nil && fifoCall(x).received != nil && !udma(x).sending &&
				udma(x).stage == udmaStatus && udma(x).dmaLeft == 0
		}})
	for _, k := range []Kind{StarTJR, CNI32Qm} {
		cuts = append(cuts,
			cut{k, 248, "wait", false, func(x *composed) bool { return x.coh.waiting }},
			cut{k, 248, "consume", false, func(x *composed) bool {
				return x.coh.received != nil && !x.coh.waiting && x.coh.consuming.i > 1
			}})
	}
	for _, c := range cuts {
		c := c
		t.Run(c.kind.ShortName()+"/"+c.name, func(t *testing.T) {
			r := newTwoNodes(t, c.kind, 1, nil)
			unwound := false
			p0 := r.eng.Spawn("n0", func(p *sim.Process) {
				defer func() { unwound = true }()
				for i := 0; c.sending && i < 2; i++ {
					m := netsim.NewSized(0, 1, 1, c.payload)
					for !r.nis[0].CanSend(m) {
						p.Sleep(100 * sim.Nanosecond)
					}
					sendOn(r.procs[0], r.nis[0], m)
				}
				recvOn(r.procs[0], r.nis[0])
			})
			r.procs[0].Bind(p0)
			r.procs[1].Bind(r.eng.Spawn("n1", func(p *sim.Process) {
				if !c.sending {
					p.Sleep(sim.Microsecond)
					sendOn(r.procs[1], r.nis[1], netsim.NewSized(1, 0, 1, c.payload))
				}
				p.Park()
			}))
			x := r.nis[0].(*composed)
			for !c.at(x) {
				if !r.eng.Step() {
					t.Fatal("the run ended before the cut")
				}
			}
			r.eng.Drain()
			if !p0.Done() || !unwound {
				t.Fatalf("drain: done=%v unwound=%v", p0.Done(), unwound)
			}
			pending, resumes, charged := r.eng.Pending(), r.eng.Resumes(), r.nodes[0].TimeIn
			if x.hw != nil {
				x.hw.wake()
				if x.hw.cpu != nil && x.hw.cpu.spin.pr != nil {
					spinWoke(&x.hw.cpu.spin, 0)
				}
			}
			if u, ok := x.send.(*udmaEngine); ok && x.hw.cpu != nil {
				udmaWoke(u, 0)
				if u.dmaLeft == 0 && u.dmaMsg == nil {
					dmaBlockDone(u, 0)
				}
			}
			if x.coh != nil && x.coh.caller != nil {
				x.coh.wake()
				cniWoke(x.coh, 0)
			}
			if r.eng.Pending() != pending || r.eng.Resumes() != resumes || r.nodes[0].TimeIn != charged {
				t.Fatalf("the call's continuations of a dead process scheduled %d events, resumed %d times and charged %v",
					r.eng.Pending()-pending, r.eng.Resumes()-resumes, r.nodes[0].TimeIn)
			}
		})
	}
}
