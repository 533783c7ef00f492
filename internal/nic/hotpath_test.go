package nic

import (
	"fmt"
	"testing"

	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/sim"
)

// TestComposedSendRecvAllocFree is the allocation gate for the composed NI
// hot paths: once warm, a complete send→deliver→poll round through every
// named design must not allocate. The path under test spans the composed
// dispatch, the fifo engines (uncached words, register words, block-buffer
// transfers, UDMA's small-message fallback and its DMA block chain), the
// fifo window hardware queues, the coherent engine's rings, prefetch marks,
// NI cache and throttle credits, the bus's transaction pool, and netsim's
// pooled delivery — regressing any of them to a per-message allocation (a
// closure in dispatch, a fresh bus transaction per access, a queue that
// strands its backing array) fails this test.
func TestComposedSendRecvAllocFree(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(k.ShortName(), func(t *testing.T) {
			// 8 B payload: the word designs' native size. 64 B: a CM-5
			// access train spanning several sub-messages, and
			// block-buffer trains of two chunks. Both stay under the UDMA
			// threshold, so its uncached-word fallback is exercised.
			payloads := []int{8, 64}
			if k == UDMA || SpecFor(k).Buffering != FifoVM {
				// A 256 B message, the network's largest: above the
				// UDMA threshold, so the DMA block chain runs on both
				// sides, and four blocks on a coherent ring.
				payloads = append(payloads, 248)
			}
			for _, payload := range payloads {
				payload := payload
				t.Run(fmt.Sprintf("%dB", payload), func(t *testing.T) {
					composedRoundAllocFree(t, k, payload)
				})
			}
		})
	}
}

// composedRoundAllocFree is one TestComposedSendRecvAllocFree case.
func composedRoundAllocFree(t *testing.T, k Kind, payload int) {
	r := newTwoNodes(t, k, 8, nil)
	m := netsim.NewSized(0, 1, 1, payload)

	// Warm the pools: event records, bus transactions, queue backing
	// arrays, flow-control state. A UDMA transfer also stages through the
	// next of 256 rotating DRAM buffers, whose first touch installs cache
	// tag pages, so the warm-up runs past one full rotation.
	const warm = 20 + 256
	// AllocsPerRun below makes one extra, unmeasured run.
	const total = warm + 1 + 200
	// One long-lived sender and receiver perform one round each
	// time the test releases one: AllocsPerRun cannot re-spawn
	// processes per round without measuring the spawn itself.
	release, got := 0, 0
	p0 := r.eng.Spawn("sender", func(p *sim.Process) {
		pr, ni := r.procs[0], r.nis[0]
		for i := 0; i < total; i++ {
			for release <= i {
				p.Sleep(100 * sim.Nanosecond)
			}
			for !ni.CanSend(m) {
				p.Sleep(100 * sim.Nanosecond)
			}
			sendOn(pr, ni, m)
		}
	})
	r.procs[0].Bind(p0)
	p1 := r.eng.Spawn("receiver", func(p *sim.Process) {
		q := &poller{pr: r.procs[1], ni: r.nis[1]}
		for got < total {
			if m, _ := q.poll(); m != nil {
				got++
			} else {
				p.Sleep(100 * sim.Nanosecond)
			}
		}
	})
	r.procs[1].Bind(p1)

	running := func() bool { return got < release }
	round := func() {
		release++
		r.eng.RunWhile(running)
		if got != release {
			t.Fatalf("round %d did not complete: got=%d", release, got)
		}
	}
	for i := 0; i < warm; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("composed send/recv round allocates %.1f per run, want 0", allocs)
	}
}

// TestAdmissionControlAllocFree gates the composed admission-control fast
// path: a CM5 design with a tight watermark receives two back-to-back
// messages per round — the first admitted against an empty queue, the
// second refused onto the bounce network (occupancy over the watermark)
// and re-sent by the sender's software retry once the receiver has drained
// the first. The occupancy probe, refuse verdict, bounce-queue recycling,
// and software retry must all be allocation-free once warm.
func TestAdmissionControlAllocFree(t *testing.T) {
	spec := SpecFor(CM5)
	// 12% of 8 buffers rounds to under one message: any occupancy refuses.
	spec.Overload = OverloadPolicy{AdmitPct: 12, Refuse: RefuseBounce}
	r := newTwoNodesNet(t, spec, 8, netsim.DefaultConfig(), nil)
	m1 := netsim.NewSized(0, 1, 1, 8)
	m2 := netsim.NewSized(0, 1, 1, 8)

	const total = 230
	release, got := 0, 0
	p0 := r.eng.Spawn("sender", func(p *sim.Process) {
		pr, ni := r.procs[0], r.nis[0]
		q := &poller{pr: pr, ni: ni}
		for i := 0; i < total; i++ {
			for release <= i {
				p.Sleep(100 * sim.Nanosecond)
			}
			for _, m := range []*netsim.Message{m1, m2} {
				for !ni.CanSend(m) {
					if _, ok := q.poll(); !ok {
						p.Sleep(100 * sim.Nanosecond)
					}
				}
				sendOn(pr, ni, m)
			}
			// Service the refused send's bounce until both land.
			for r.net.Delivered() < int64(2*(i+1)) {
				if _, ok := q.poll(); !ok {
					p.Sleep(100 * sim.Nanosecond)
				}
			}
		}
	})
	r.procs[0].Bind(p0)
	p1 := r.eng.Spawn("receiver", func(p *sim.Process) {
		q := &poller{pr: r.procs[1], ni: r.nis[1]}
		for got < 2*total {
			// Let both arrivals hit the admission gate before draining, so
			// the second is refused against the first's occupancy.
			p.Sleep(2 * sim.Microsecond)
			for got < 2*release {
				if m, _ := q.poll(); m != nil {
					got++
				} else {
					p.Sleep(100 * sim.Nanosecond)
				}
			}
		}
	})
	r.procs[1].Bind(p1)

	running := func() bool { return got < 2*release }
	round := func() {
		release++
		r.eng.RunWhile(running)
		if got != 2*release {
			t.Fatalf("round %d did not complete: got=%d", release, got)
		}
	}
	for i := 0; i < 20; i++ {
		round()
	}
	if r.nodes[1].AdmitBounces == 0 {
		t.Fatal("warmup never hit the refuse path; the gate proves nothing")
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("admission-controlled round allocates %.1f per run, want 0", allocs)
	}
	if r.nodes[1].AdmitBounces < 200 {
		t.Errorf("gated rounds stopped exercising the refuse path: %d admission bounces", r.nodes[1].AdmitBounces)
	}
}

// exchange runs rounds of a 2-node ping-pong of payload-byte messages on
// spec and returns the engine's process resumes and events over the run.
func exchange(t *testing.T, spec Spec, rounds, payload int) (resumes, events uint64) {
	r := newTwoNodesSpec(t, spec, 8, nil)
	r.run(t, func(pr *proc.Proc, ni NI) {
		for i := 0; i < rounds; i++ {
			sendOn(pr, ni, netsim.NewSized(0, 1, 1, payload))
			recvOn(pr, ni)
		}
	}, func(pr *proc.Proc, ni NI) {
		for i := 0; i < rounds; i++ {
			recvOn(pr, ni)
			sendOn(pr, ni, netsim.NewSized(1, 0, 1, payload))
		}
	})
	return r.eng.Resumes(), r.eng.Events()
}

// TestCM5ResumesPerMessage pins the host process switches a CM-5 message
// costs. A 64 B payload plus its header is nine fifo words and four
// sub-message status reads on each side. Issued one access at a time that
// was 50.02 resumes per message, two per word; as access trains resumed
// at each train's end, four: the sender after its path and status read
// and after its push, the receiver after its wait and after its receive
// train. Each call now chains its trains in event context and resumes its
// process once, where it returns: the sender's Send and the receiver's
// Recv, two per message, plus the two process starts over the run.
func TestCM5ResumesPerMessage(t *testing.T) {
	const rounds = 50
	resumes, _ := exchange(t, SpecFor(CM5), rounds, 64)
	if got, want := float64(resumes)/(2*rounds), 2+2.0/(2*rounds); got != want {
		t.Fatalf("%.2f resumes per 64 B CM-5 message, want %.2f", got, want)
	}
}

// TestCM5EventsPerMessage pins the engine events a CM-5 message costs.
// Stepwise access trains keep every event of the one-by-one accesses, about
// five per word (the work step, the address phase, the data phase, a
// write's home access and the continuation): 121.02 per 64 B message. On
// the processor-only bus of a fifo NI the trains are closed, and a message
// costs the completions of the three trains that end in an access (the
// sender's status check and push, the receiver's drain), the four resumes,
// and the network's arrival, accept decision and buffer release: ten, plus
// the two process starts over the run.
func TestCM5EventsPerMessage(t *testing.T) {
	const rounds = 50
	_, events := exchange(t, SpecFor(CM5), rounds, 64)
	if got, want := float64(events)/(2*rounds), 10+2.0/(2*rounds); got != want {
		t.Fatalf("%.2f events per 64 B CM-5 message, want %.2f", got, want)
	}
}

// TestResumesAndEventsPerMessage pins the host process switches and the
// engine events a message costs on every named NI and on the three RDMA
// specs, over a 50-round ping-pong (100 messages) whose two process
// starts add 0.02 to each resume count.
//
// Resumes. Every NI call runs in event context, its trains and waits
// chained through done hooks, and resumes its process once, where it
// returns: a message costs the sender's Send and the receiver's Recv, two
// on every named NI at every size. As trains that each resumed the
// process, a fifo message cost four (the sender's path and status read
// and its push, the receiver's wait and its receive train), a coherent
// one three (the compose train, the wait and the consume train), Memory
// Channel four, and UDMA above its DMA threshold (248 B) 13: on each side
// the DMA start, the bus-master handoff, the wait for the block chain,
// the completion check and the staging copy, plus the sender's path and
// status read and the receiver's wait and head examination.
//
// An RDMA message costs 4 to 7 (plus the two rdma processes' starts, and
// one registration on each side's first send): the post (its work and
// doorbell) and the coherent receive resume once each, and each node's
// NI-side rdma process resumes per wait and once per 64 B block it
// fetches (Bus.Access).
//
// Events. A fifo NI's bus is processor-only, so its trains are closed:
// ten events per message (see DESIGN.md §4.4). A coherent NI's trains are
// stepwise and its engines move each block, so its events grow with the
// message: every step keeps the event a process would have run. Each
// hook runs in the slot its process's wakeup had, so no event moved when
// the calls went to event context.
func TestResumesAndEventsPerMessage(t *testing.T) {
	const rounds = 50
	rdma := func(b Buffering) Spec { return Spec{Send: RDMAEngine, Recv: CoherentEngine, Buffering: b} }
	want := map[Spec][3][2]uint64{ // per payload 8, 64, 248 B: resumes, events
		SpecFor(CM5):             {{202, 1002}, {202, 1002}, {202, 1002}},
		SpecFor(CM5SingleCycle):  {{202, 1001}, {202, 1002}, {202, 1002}},
		SpecFor(UDMA):            {{202, 1002}, {202, 1002}, {202, 6002}},
		SpecFor(AP3000):          {{202, 1002}, {202, 1002}, {202, 1002}},
		SpecFor(StarTJR):         {{202, 2310}, {202, 3510}, {202, 5766}},
		SpecFor(MemoryChannel):   {{202, 2006}, {202, 3106}, {202, 5306}},
		SpecFor(CNI512Q):         {{202, 2210}, {202, 3210}, {202, 5210}},
		SpecFor(CNI32Qm):         {{202, 2220}, {202, 3234}, {202, 5146}},
		SpecFor(CNI32QmThrottle): {{202, 2309}, {202, 3309}, {202, 5165}},
		rdma(MemoryRing):         {{404, 2310}, {504, 3210}, {704, 5010}},
		rdma(NIRing):             {{404, 2210}, {504, 3010}, {704, 4610}},
		rdma(NICachedRing):       {{404, 2220}, {504, 3034}, {704, 4690}},
	}
	var specs []Spec
	for _, k := range Kinds() {
		specs = append(specs, SpecFor(k))
	}
	specs = append(specs, rdma(MemoryRing), rdma(NIRing), rdma(NICachedRing))
	for _, spec := range specs {
		for i, payload := range []int{8, 64, 248} {
			spec, i, payload := spec, i, payload
			t.Run(fmt.Sprintf("%s/%dB", spec.Name(), payload), func(t *testing.T) {
				resumes, events := exchange(t, spec, rounds, payload)
				w := want[spec][i]
				if resumes != w[0] || events != w[1] {
					t.Errorf("%.2f resumes and %.2f events per message, want %.2f and %.2f",
						float64(resumes)/(2*rounds), float64(events)/(2*rounds),
						float64(w[0])/(2*rounds), float64(w[1])/(2*rounds))
				}
			})
		}
	}
}

// TestQueueBoundedWithoutDraining keeps a queue one to four entries deep
// and never lets it drain, as the NI cache's live set can under steady
// load. Its backing array must stay at a small multiple of that depth:
// appending behind popped slots that are never reused grows it without
// bound.
func TestQueueBoundedWithoutDraining(t *testing.T) {
	var q queue[int64]
	q.push(0)
	for i := int64(1); i < 100000; i++ {
		q.push(i)
		if i%4 == 0 {
			for q.len() > 1 {
				q.pop()
			}
		}
	}
	if c := cap(q.a); c > 16 {
		t.Errorf("backing array holds %d entries for a queue at most 5 deep", c)
	}
	if got := q.items(); len(got) != 4 || got[0] != 99996 || got[3] != 99999 {
		t.Errorf("queue holds %v, want [99996 99997 99998 99999]", got)
	}
}
