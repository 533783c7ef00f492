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
	r := &floodRig{eng: sim.NewEngine()}
	nw := netsim.New(r.eng, netsim.DefaultConfig(), 2, 1)
	for i := 0; i < 2; i++ {
		st := stats.NewNode()
		bus := membus.New(r.eng, membus.DefaultTiming(), st)
		if stepwise {
			bus.Trace = func(string, ...any) {}
		}
		mem := mainmem.New("dram", 120*sim.Nanosecond, r.eng)
		bus.MapRange(nic.DRAMBase, nic.DRAMLimit, mem)
		c := cache.New("cache", r.eng, bus, cache.DefaultConfig(), st)
		pr := &proc.Proc{ID: i, Eng: r.eng, Bus: bus, Cache: c, Stats: st, CPU: sim.GHz(1)}
		ep := nw.Endpoint(i)
		ep.Stats = st
		ni := nic.New(kind, &nic.Env{Eng: r.eng, ID: i, Bus: bus, Mem: mem, EP: ep, Stats: st, CPU: sim.GHz(1), Cfg: nic.DefaultConfig()})
		r.eps[i] = New(pr, ni, ep, DefaultConfig())
	}
	r.eps[1].Register(hFlood, func(*Endpoint, *Message) { r.got++ })
	r.eps[0].Register(hAck, func(*Endpoint, *Message) { r.acked = true })
	return r
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
			ep.Send(1, hFlood, 64, 0)
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
// event context: the process resumes once per blocked send, when the send
// can go or an arrival waits to be dispatched, and a blocking receive's
// retries resume nothing. So no resume grows with the spins or the
// retries. Run as process steps, a spin iteration cost two resumes (the
// miss and the sleep) and a retry two or three (the CM-5's handler work,
// the read-back and the re-push): 1691, 2698, 1571, 1804 and 816 resumes
// on the CM-5, its single-cycle variant, UDMA, AP3000 and Memory Channel,
// and 2207 on the throttled CNI, whose sends block on credit. The coherent
// NIs without throttling never block here, and their retries are the NI's
// own. The spins, the retries and the stepwise events are those of the
// process steps. Closed, an unsuccessful poll's status read on UDMA and
// AP3000 costs its completion and the end event, one fewer than stepwise.
func TestResumesAndEventsPerSpin(t *testing.T) {
	const n = 100
	want := map[nic.Kind][5]int64{ // resumes, events closed, events stepwise, spins, retries
		nic.CM5:             {806, 3184, 23049, 295, 99},
		nic.CM5SingleCycle:  {707, 4161, 15456, 704, 172},
		nic.UDMA:            {712, 3148, 18054, 315, 110},
		nic.AP3000:          {707, 3653, 9129, 383, 144},
		nic.StarTJR:         {507, 3689, 3689, 0, 6},
		nic.MemoryChannel:   {707, 3542, 3542, 104, 1},
		nic.CNI512Q:         {507, 3434, 3434, 0, 0},
		nic.CNI32Qm:         {507, 3698, 3698, 0, 2},
		nic.CNI32QmThrottle: {585, 5165, 5165, 850, 0},
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
// returned message re-pushes it there and resumes the process once. Run
// as process steps, the miss and the re-push each resumed the process:
// 838, 760, 749 and 740 resumes on the CM-5, its single-cycle variant,
// UDMA and AP3000. The events, spins and retries are those of the process
// steps.
func TestResumesAndEventsPerSpinPolled(t *testing.T) {
	const n = 100
	want := map[nic.Kind][5]int64{ // resumes, events closed, events stepwise, spins, retries
		nic.CM5:            {837, 3233, 23160, 295, 99},
		nic.CM5SingleCycle: {758, 4210, 15524, 704, 171},
		nic.UDMA:           {748, 3198, 18111, 315, 109},
		nic.AP3000:         {739, 3697, 9185, 383, 143},
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

// TestBlockedSendDrain kills the flood's sender while its blocked send
// sleeps one SpinWait, and while a retry's trains run: Drain unwinds the
// process through its deferred function, the loop's sleep continuation
// fired afterwards schedules, resumes and charges nothing, and the
// goroutine count settles back to where it started.
func TestBlockedSendDrain(t *testing.T) {
	for _, k := range []nic.Kind{nic.CM5, nic.AP3000, nic.UDMA, nic.MemoryChannel, nic.CNI32QmThrottle} {
		for _, cut := range []string{"spin", "retry"} {
			if cut == "retry" && nic.SpecFor(k).Buffering != nic.FifoVM {
				continue // the NI re-pushes returned messages itself
			}
			for _, stepwise := range []bool{false, true} {
				k, cut, stepwise := k, cut, stepwise
				t.Run(fmt.Sprintf("%s/%s/stepwise=%v", k.ShortName(), cut, stepwise), func(t *testing.T) {
					base := settledGoroutines()
					r := newFloodRig(t, k, stepwise)
					r.spawn(100)
					ep := r.eps[0]
					b := &ep.blocked
					for {
						spins, retries := ep.Spins, ep.pr.Stats.Retries
						if !r.eng.Step() {
							t.Fatalf("the flood ended without a blocked send's %s", cut)
						}
						if b.nm == nil {
							continue
						}
						if cut == "spin" && ep.Spins > spins || cut == "retry" && ep.pr.Stats.Retries > retries {
							break
						}
					}
					r.eng.Drain()
					if !r.procs[0].Done() || !r.unwound || r.finished {
						t.Fatalf("drain: done=%v unwound=%v finished=%v", r.procs[0].Done(), r.unwound, r.finished)
					}
					pending, resumes, charged := r.eng.Pending(), r.eng.Resumes(), ep.pr.Stats.TimeIn
					blockedSlept(b, 0)
					if r.eng.Pending() != pending || r.eng.Resumes() != resumes || ep.pr.Stats.TimeIn != charged {
						t.Fatalf("the loop's continuation of a dead process scheduled %d events, resumed %d times and charged %v",
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
