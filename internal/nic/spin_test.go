package nic

import (
	"fmt"
	"testing"

	"nisim/internal/netsim"
	"nisim/internal/sim"
)

// TestRecvWaitDrain kills a process blocked in a fifo NI's Recv, once
// while it waits for an arrival and once while it re-pushes a returned
// message. Node 1 never receives, so node 0's second message, sent once
// the ack of the first frees node 0's one outgoing buffer, bounces off
// node 1's one full buffer again and again. After Drain neither the wake of an
// accept or a bounce nor the wait's continuation schedules an event,
// resumes the dead process or charges it time.
func TestRecvWaitDrain(t *testing.T) {
	for _, k := range []Kind{CM5, AP3000, UDMA} {
		for _, cut := range []string{"wait", "retry"} {
			k, cut := k, cut
			t.Run(fmt.Sprintf("%s/%s", k.ShortName(), cut), func(t *testing.T) {
				r := newTwoNodes(t, k, 1, nil)
				p0 := r.eng.Spawn("n0", func(p *sim.Process) {
					for i := 0; i < 2; i++ {
						m := netsim.NewSized(0, 1, 1, 64)
						for !r.nis[0].CanSend(m) {
							p.Sleep(100 * sim.Nanosecond)
						}
						r.nis[0].Send(r.procs[0], m)
					}
					r.nis[0].Recv(r.procs[0])
				})
				r.procs[0].Bind(p0)
				r.procs[1].Bind(r.eng.Spawn("n1", func(p *sim.Process) { p.Park() }))
				hw := r.nis[0].(*composed).hw
				// busy counts the steps with a retry in flight, so the cut
				// comes after several bounce rounds.
				for busy := 0; ; {
					if !r.eng.Step() {
						t.Fatal("the run ended before the cut")
					}
					if hw.cpu == nil {
						continue
					}
					s := &hw.cpu.spin
					if s.m != nil {
						busy++
					}
					if busy > 3 && (cut == "wait" && s.waiting || cut == "retry" && s.m != nil) {
						break
					}
				}
				r.eng.Drain()
				if !p0.Done() {
					t.Fatal("drain left the process alive")
				}
				pending, resumes, charged := r.eng.Pending(), r.eng.Resumes(), r.nodes[0].TimeIn
				hw.wake()
				spinWoke(&hw.cpu.spin, 0)
				if r.eng.Pending() != pending || r.eng.Resumes() != resumes || r.nodes[0].TimeIn != charged {
					t.Fatalf("the wait's continuations of a dead process scheduled %d events, resumed %d times and charged %v",
						r.eng.Pending()-pending, r.eng.Resumes()-resumes, r.nodes[0].TimeIn)
				}
			})
		}
	}
}
