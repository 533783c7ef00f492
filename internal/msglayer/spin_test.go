package msglayer

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"nisim/internal/cache"
	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// floodRig is a two-node machine on kind with one flow-control buffer per
// node: node 0 floods node 1 with 64 B messages while node 1 computes
// between receives, so node 0's pushes block on its one outgoing buffer
// and, on the fifo NIs, node 1's full receive buffer bounces them back for
// software re-push.
type floodRig struct {
	eng   *sim.Engine
	eps   [2]*Endpoint
	procs [2]*sim.Process
	got   int // messages node 1 has handled
	size  int // the flood's payload bytes
	acked bool
	// Node 0's program ran to its end, or unwound through its deferred
	// function.
	finished, unwound bool
}

const (
	hFlood = 1
	hAck   = 2
)

func newFloodRig(t *testing.T, kind nic.Kind, stepwise bool) *floodRig {
	t.Helper()
	r := &floodRig{size: 64}
	r.eng, r.eps = newPair(kind, 1, stepwise)
	r.eps[1].Register(hFlood, func(*Endpoint, *Message) { r.got++ })
	r.eps[0].Register(hAck, func(*Endpoint, *Message) { r.acked = true })
	return r
}

// newPair builds two endpoints on kind with bufs flow-control buffers per
// node, no process bound; stepwise makes the buses run every access train
// stepwise, as tracing does.
func newPair(kind nic.Kind, bufs int, stepwise bool) (*sim.Engine, [2]*Endpoint) {
	eng := sim.NewEngine()
	var eps [2]*Endpoint
	nw := netsim.New(eng, netsim.DefaultConfig(), 2, bufs)
	for i := 0; i < 2; i++ {
		st := stats.NewNode()
		bus := membus.New(eng, membus.DefaultTiming(), st)
		if stepwise {
			bus.Trace = func(string, ...any) {}
		}
		mem := mainmem.New("dram", 120*sim.Nanosecond, eng)
		bus.MapRange(nic.DRAMBase, nic.DRAMLimit, mem)
		c := cache.New("cache", eng, bus, cache.DefaultConfig(), st)
		pr := &proc.Proc{ID: i, Eng: eng, Bus: bus, Cache: c, Stats: st, CPU: sim.GHz(1)}
		ep := nw.Endpoint(i)
		ep.Stats = st
		ni := nic.New(kind, &nic.Env{Eng: eng, ID: i, Bus: bus, Mem: mem, EP: ep, Stats: st, CPU: sim.GHz(1), Cfg: nic.DefaultConfig()})
		eps[i] = New(pr, ni, ep, DefaultConfig())
	}
	return eng, eps
}

// spawn starts the flood of n messages: node 0 sends them and then waits
// for node 1's acknowledgement, re-pushing its bounced messages from
// inside Recv; node 1 computes 1000 cycles before each receive and
// acknowledges the last.
func (r *floodRig) spawn(n int) { r.spawnWaiting(n, false) }

// spawnWaiting is spawn with node 0's wait for the acknowledgement either
// a blocking WaitUntil or, when polled, PollOne in a loop with 100 cycles
// of computation after each poll that found nothing to do.
func (r *floodRig) spawnWaiting(n int, polled bool) {
	r.procs[0] = r.eng.Spawn("n0", func(*sim.Process) {
		defer func() { r.unwound = true }()
		ep := r.eps[0]
		for i := 0; i < n; i++ {
			ep.Send(1, hFlood, r.size, 0)
		}
		if polled {
			for !r.acked {
				if !ep.PollOne() {
					ep.pr.Compute(100)
				}
			}
		} else {
			ep.WaitUntil(func() bool { return r.acked })
		}
		r.finished = true
	})
	r.eps[0].pr.Bind(r.procs[0])
	r.procs[1] = r.eng.Spawn("n1", func(*sim.Process) {
		ep := r.eps[1]
		for r.got < n {
			ep.pr.Compute(1000)
			seen := r.got
			ep.WaitUntil(func() bool { return r.got > seen })
		}
		ep.Send(0, hAck, 0, 0)
	})
	r.eps[1].pr.Bind(r.procs[1])
}

// TestResumesAndEventsPerSpin pins the host process switches and engine
// events of the flood on every named NI, with closed and with stepwise
// access trains, and the spin sleeps and software re-pushes (retries) it
// provokes.
//
// A blocked send polls without success, re-pushes a returned message the
// NI needs software for, sleeps one SpinWait and checks again, all in
// event context, and goes on to its NI send there when the send can go:
// the process resumes only when an arrival waits to be dispatched, which
// never happens here, and a blocking receive's retries resume nothing. So
// no resume grows with the spins or the retries, and the flood costs 304
// on every NI: the two process starts, one per Send (101), one per
// received message (101) and node 1's 100 computations. When a blocked
// send resumed its process once it could go, and each NI train, wait and
// messaging-layer cost resumed it too, the flood cost 806, 707, 712, 707
// and 707 resumes on the CM-5, its single-cycle variant, UDMA, AP3000 and
// Memory Channel, 507 on the coherent NIs and 585 on the throttled CNI,
// whose sends block on credit; run as process steps, a spin iteration
// cost two more (the miss and the sleep) and a retry two or three (the
// CM-5's handler work, the read-back and the re-push). The coherent NIs
// without throttling never block here, and their retries are the NI's
// own. The events, spins and retries are those of the process steps.
// Closed, an unsuccessful poll's status read on UDMA and AP3000 costs its
// completion and the end event, one fewer than stepwise.
func TestResumesAndEventsPerSpin(t *testing.T) {
	const n = 100
	want := map[nic.Kind][5]int64{ // resumes, events closed, events stepwise, spins, retries
		nic.CM5:             {304, 3184, 23049, 295, 99},
		nic.CM5SingleCycle:  {304, 4161, 15456, 704, 172},
		nic.UDMA:            {304, 3148, 18054, 315, 110},
		nic.AP3000:          {304, 3653, 9129, 383, 144},
		nic.StarTJR:         {304, 3689, 3689, 0, 6},
		nic.MemoryChannel:   {304, 3542, 3542, 104, 1},
		nic.CNI512Q:         {304, 3434, 3434, 0, 0},
		nic.CNI32Qm:         {304, 3698, 3698, 0, 2},
		nic.CNI32QmThrottle: {304, 5165, 5165, 850, 0},
	}
	for _, k := range nic.Kinds() {
		for i, mode := range []string{"closed", "stepwise"} {
			k, i := k, i
			t.Run(k.ShortName()+"/"+mode, func(t *testing.T) {
				r := newFloodRig(t, k, i == 1)
				r.spawn(n)
				r.eng.Run()
				if r.got != n || !r.acked {
					t.Fatalf("flood did not finish: %d of %d delivered, acked %v", r.got, n, r.acked)
				}
				w := want[k]
				got := [5]int64{int64(r.eng.Resumes()), 0, 0,
					r.eps[0].Spins + r.eps[1].Spins,
					r.eps[0].pr.Stats.Retries + r.eps[1].pr.Stats.Retries}
				got[1+i] = int64(r.eng.Events())
				w[2-i] = 0
				if got != w {
					t.Errorf("resumes, events (closed, stepwise), spins, retries = %v, want %v", got, w)
				}
			})
		}
	}
}

// TestResumesAndEventsPerSpinPolled is TestResumesAndEventsPerSpin with
// node 0 waiting for the acknowledgement by polling (spawnWaiting) on the
// NIs whose buffering involves the processor. Its misses run in event
// context with the process parked (NI.PollMiss), and a miss that finds a
// returned message re-pushes it there and resumes the process once. Node
// 0 resumes once per poll and once per computation after a poll that
// found nothing, so the resumes follow its polls: 335, 356, 341 and 337
// on the CM-5, its single-cycle variant, UDMA and AP3000. When a blocked
// send resumed its process once it could go, and every NI train and
// messaging-layer cost resumed it, they were 837, 758, 748 and 739; run
// as process steps, the miss and the re-push each resumed the process:
// 838, 760, 749 and 740. The events, spins and retries are those of the
// process steps.
func TestResumesAndEventsPerSpinPolled(t *testing.T) {
	const n = 100
	want := map[nic.Kind][5]int64{ // resumes, events closed, events stepwise, spins, retries
		nic.CM5:            {335, 3233, 23160, 295, 99},
		nic.CM5SingleCycle: {356, 4210, 15524, 704, 171},
		nic.UDMA:           {341, 3198, 18111, 315, 109},
		nic.AP3000:         {337, 3697, 9185, 383, 143},
	}
	for _, k := range []nic.Kind{nic.CM5, nic.CM5SingleCycle, nic.UDMA, nic.AP3000} {
		for i, mode := range []string{"closed", "stepwise"} {
			k, i := k, i
			t.Run(k.ShortName()+"/"+mode, func(t *testing.T) {
				r := newFloodRig(t, k, i == 1)
				r.spawnWaiting(n, true)
				r.eng.Run()
				if r.got != n || !r.acked || !r.finished {
					t.Fatalf("flood did not finish: %d of %d delivered, acked %v", r.got, n, r.acked)
				}
				w := want[k]
				got := [5]int64{int64(r.eng.Resumes()), 0, 0,
					r.eps[0].Spins + r.eps[1].Spins,
					r.eps[0].pr.Stats.Retries + r.eps[1].pr.Stats.Retries}
				got[1+i] = int64(r.eng.Events())
				w[2-i] = 0
				if got != w {
					t.Errorf("resumes, events (closed, stepwise), spins, retries = %v, want %v", got, w)
				}
			})
		}
	}
}

// settledGoroutines returns runtime.NumGoroutine once the count has held
// still for several consecutive samples.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; still < 5 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestBlockedSendDrain kills the flood's sender while its send runs in
// event context: during its SendCycles, during a later fragment's
// FragCycles (a 600 B flood, three fragments), while the blocked send
// sleeps one SpinWait, and while a retry's trains run. Drain unwinds the
// process through its deferred function, the send's continuations fired
// afterwards (the end of its software, the end of its sleep) schedule,
// resume and charge nothing, and the goroutine count settles back to
// where it started.
func TestBlockedSendDrain(t *testing.T) {
	for _, k := range []nic.Kind{nic.CM5, nic.AP3000, nic.UDMA, nic.MemoryChannel, nic.CNI32QmThrottle} {
		for _, cut := range []string{"count", "frag", "spin", "retry"} {
			if cut == "retry" && nic.SpecFor(k).Buffering != nic.FifoVM {
				continue // the NI re-pushes returned messages itself
			}
			for _, stepwise := range []bool{false, true} {
				k, cut, stepwise := k, cut, stepwise
				t.Run(fmt.Sprintf("%s/%s/stepwise=%v", k.ShortName(), cut, stepwise), func(t *testing.T) {
					base := settledGoroutines()
					r := newFloodRig(t, k, stepwise)
					if cut == "frag" {
						r.size = 600
					}
					r.spawn(100)
					ep := r.eps[0]
					for {
						spins, retries := ep.Spins, ep.pr.Stats.Retries
						if !r.eng.Step() {
							t.Fatalf("the flood ended without a send's %s", cut)
						}
						s, working := &ep.out, ep.workThen != nil
						if cut == "count" && working && s.frags != nil && s.nm == nil ||
							cut == "frag" && working && s.i > 0 && s.nm != nil && r.got > 0 ||
							s.nm != nil && (cut == "spin" && ep.Spins > spins || cut == "retry" && ep.pr.Stats.Retries > retries) {
							break
						}
					}
					r.eng.Drain()
					if !r.procs[0].Done() || !r.unwound || r.finished {
						t.Fatalf("drain: done=%v unwound=%v finished=%v", r.procs[0].Done(), r.unwound, r.finished)
					}
					pending, resumes, charged := r.eng.Pending(), r.eng.Resumes(), ep.pr.Stats.TimeIn
					if ep.workThen != nil {
						worked(ep, 0)
					}
					blockedSlept(ep, 0)
					if r.eng.Pending() != pending || r.eng.Resumes() != resumes || ep.pr.Stats.TimeIn != charged {
						t.Fatalf("the send's continuations of a dead process scheduled %d events, resumed %d times and charged %v",
							r.eng.Pending()-pending, r.eng.Resumes()-resumes, ep.pr.Stats.TimeIn)
					}
					if n := settledGoroutines(); n != base {
						t.Fatalf("goroutines = %d after Drain, want baseline %d", n, base)
					}
				})
			}
		}
	}
}
