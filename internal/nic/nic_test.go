package nic

import (
	"testing"
	"testing/quick"

	"nisim/internal/cache"
	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// twoNodes builds a two-node rig: engine, per-node bus/cache/memory/NI, and
// a network with the given flow-control buffer count.
type twoNodes struct {
	eng   *sim.Engine
	net   *netsim.Network
	procs [2]*proc.Proc
	nis   [2]NI
	nodes [2]*stats.Node
}

func newTwoNodes(t *testing.T, kind Kind, bufs int, mutate func(*Config)) *twoNodes {
	t.Helper()
	eng := sim.NewEngine()
	r := &twoNodes{eng: eng, net: netsim.New(eng, netsim.DefaultConfig(), 2, bufs)}
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
		r.nis[i] = New(kind, &Env{Eng: eng, ID: i, Bus: bus, Mem: mem, EP: ep, Stats: st, CPU: sim.GHz(1), Cfg: cfg})
		r.procs[i] = pr
		r.nodes[i] = st
	}
	return r
}

// run executes sender software on node 0 and receiver software on node 1.
func (r *twoNodes) run(t *testing.T, send, recv func(pr *proc.Proc, ni NI)) {
	t.Helper()
	done := 0
	p0 := r.eng.Spawn("n0", func(p *sim.Process) { send(r.procs[0], r.nis[0]); done++ })
	r.procs[0].Bind(p0)
	p1 := r.eng.Spawn("n1", func(p *sim.Process) { recv(r.procs[1], r.nis[1]); done++ })
	r.procs[1].Bind(p1)
	r.eng.RunWhile(func() bool { return done < 2 })
	if done < 2 {
		t.Fatal("deadlock: programs did not finish")
	}
	r.eng.Drain()
}

// poller mirrors the messaging layer's PollOne for tests that drive an NI
// directly: poll receives the message Pending promises, or runs an
// unsuccessful poll (NI.PollMiss) with the process parked, which re-pushes
// a returned message when the NI needs software for that. It returns the
// message, or nil, and whether it received or re-pushed one. Make one per
// process; polling allocates nothing.
type poller struct {
	pr      *proc.Proc
	ni      NI
	got     *netsim.Message
	retried bool
}

func (q *poller) poll() (*netsim.Message, bool) {
	if q.ni.Pending() {
		q.ni.Poll(q.pr, pollerGot, q)
		q.pr.Park()
		return q.got, q.got != nil
	}
	q.ni.PollMiss(q.pr, pollerDone, q)
	q.pr.Park()
	return nil, q.retried
}

// pollerGot ends a poll's receive where the process resumes.
func pollerGot(recv any, m *netsim.Message) {
	q := recv.(*poller)
	q.got = m
	q.pr.Return()
}

// pollerDone ends an unsuccessful poll where the process resumes.
func pollerDone(recv any, retried uint64) {
	q := recv.(*poller)
	q.retried = retried != 0
	q.pr.Return()
}

// sendOn sends m through ni from pr's process, parked once for the call,
// as the messaging layer does.
func sendOn(pr *proc.Proc, ni NI, m *netsim.Message) {
	ni.Send(pr, m, proc.ReturnHandler, pr)
	pr.Park()
}

// receiving is a blocking receive in flight: the receiving processor and
// the message the receive took.
type receiving struct {
	pr *proc.Proc
	m  *netsim.Message
}

// recvOn receives a message through ni from pr's process, parked once
// for the call, as the messaging layer does.
func recvOn(pr *proc.Proc, ni NI) *netsim.Message {
	r := &receiving{pr: pr}
	ni.Recv(pr, received, r)
	pr.Park()
	return r.m
}

// received ends recvOn's receive where the process resumes.
func received(recv any, m *netsim.Message) {
	r := recv.(*receiving)
	r.m = m
	r.pr.Return()
}

// sendN sends count messages, polling while the NI cannot take one, and
// then keeps polling, which services bounce retries, until the whole batch
// has been delivered network-wide (the messaging layer does this in the
// full stack; here the test drives the NI directly).
func (r *twoNodes) sendN(count, payload int) func(pr *proc.Proc, ni NI) {
	return func(pr *proc.Proc, ni NI) {
		q := &poller{pr: pr, ni: ni}
		for i := 0; i < count; i++ {
			m := netsim.NewSized(0, 1, 1, payload)
			for !ni.CanSend(m) {
				if _, ok := q.poll(); !ok {
					pr.P.SleepAs(stats.Buffering, 100*sim.Nanosecond)
				}
			}
			sendOn(pr, ni, m)
		}
		for r.net.Delivered() < int64(count) {
			if ni.NeedsRetry() {
				q.poll()
			} else {
				pr.P.SleepAs(stats.Buffering, 100*sim.Nanosecond)
			}
		}
	}
}

func recvN(count int) func(pr *proc.Proc, ni NI) {
	return func(pr *proc.Proc, ni NI) {
		for i := 0; i < count; i++ {
			recvOn(pr, ni)
		}
	}
}

func TestEveryKindDelivers(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.ShortName(), func(t *testing.T) {
			r := newTwoNodes(t, kind, 4, nil)
			r.run(t, r.sendN(20, 48), recvN(20))
			if got := r.nodes[1].FragmentsReceived; got != 20 {
				t.Fatalf("received %d fragments, want 20", got)
			}
		})
	}
}

func TestSingleCycleUsesNoBus(t *testing.T) {
	r := newTwoNodes(t, CM5SingleCycle, 4, nil)
	r.run(t, r.sendN(10, 16), recvN(10))
	if r.nodes[0].BusTransactions != 0 || r.nodes[1].BusTransactions != 0 {
		t.Fatalf("register-mapped NI used the bus: %d/%d transactions",
			r.nodes[0].BusTransactions, r.nodes[1].BusTransactions)
	}
}

func TestCM5UsesUncachedOnly(t *testing.T) {
	r := newTwoNodes(t, CM5, 4, nil)
	r.run(t, r.sendN(10, 16), recvN(10))
	if r.nodes[0].UncachedAccesses == 0 {
		t.Fatal("CM-5-like NI performed no uncached accesses")
	}
	if r.nodes[0].BlockBufTransfers != 0 {
		t.Fatal("CM-5-like NI used block-buffer transfers")
	}
}

func TestBlkbufUsesBlockTransfers(t *testing.T) {
	r := newTwoNodes(t, AP3000, 4, nil)
	r.run(t, r.sendN(10, 120), recvN(10))
	// 120B payload + 8B header = 2 blocks per message on each side.
	if got := r.nodes[0].BlockBufTransfers; got != 20 {
		t.Fatalf("sender block transfers = %d, want 20", got)
	}
	if got := r.nodes[1].BlockBufTransfers; got != 20 {
		t.Fatalf("receiver block transfers = %d, want 20", got)
	}
}

func TestUdmaThreshold(t *testing.T) {
	// At or below the 96-byte threshold the UDMA NI behaves like the word
	// window (no cached staging traffic); above, it stages through memory.
	small := newTwoNodes(t, UDMA, 4, nil)
	small.run(t, small.sendN(5, 96), recvN(5))
	if small.nodes[0].CacheToCache+small.nodes[0].MemToCache != 0 {
		t.Fatal("small messages used the DMA path")
	}
	large := newTwoNodes(t, UDMA, 4, nil)
	large.run(t, large.sendN(5, 200), recvN(5))
	if large.nodes[0].BusTransactions == small.nodes[0].BusTransactions {
		t.Fatal("large messages did not add DMA bus traffic")
	}
}

func TestCNIPrefetchFiresOnMultiBlockSends(t *testing.T) {
	r := newTwoNodes(t, CNI512Q, 8, nil)
	r.run(t, r.sendN(10, 200), recvN(10)) // 208B = 4 blocks per message
	if r.nodes[0].Prefetches == 0 {
		t.Fatal("no send-side prefetches on multi-block messages")
	}
}

func TestCNINoPrefetchOnStarTJR(t *testing.T) {
	r := newTwoNodes(t, StarTJR, 8, nil)
	r.run(t, r.sendN(10, 200), recvN(10))
	if r.nodes[0].Prefetches != 0 {
		t.Fatalf("StarT-JR-like NI prefetched %d blocks; it does not respond to coherence signals",
			r.nodes[0].Prefetches)
	}
}

func TestCNI32QmServesFromNICache(t *testing.T) {
	r := newTwoNodes(t, CNI32Qm, 8, nil)
	r.run(t, r.sendN(10, 48), recvN(10))
	if r.nodes[1].NICacheHits == 0 {
		t.Fatal("no receive blocks served from the NI cache")
	}
	if r.nodes[1].NIBypasses != 0 {
		t.Fatalf("unexpected bypasses (%d) with a keeping-up consumer", r.nodes[1].NIBypasses)
	}
}

func TestCNI32QmBypassesWhenCacheFull(t *testing.T) {
	r := newTwoNodes(t, CNI32Qm, 64, nil)
	// The receiver consumes only after everything has arrived, so the
	// 32-block cache must overflow and later messages bypass to memory.
	r.run(t,
		r.sendN(40, 48), // 40 messages × 1 block
		func(pr *proc.Proc, ni NI) {
			for !ni.Pending() {
				pr.P.SleepAs(stats.Compute, sim.Microsecond)
			}
			pr.P.SleepAs(stats.Compute, 100*sim.Microsecond)
			recvN(40)(pr, ni)
		})
	if r.nodes[1].NIBypasses == 0 {
		t.Fatal("receive cache never bypassed under overload")
	}
	if r.nodes[1].NICacheMisses == 0 {
		t.Fatal("no receive blocks read from memory after bypass")
	}
}

func TestThrottleLimitsOutstanding(t *testing.T) {
	r := newTwoNodes(t, CNI32QmThrottle, 64, nil)
	maxUnconsumed := int64(0)
	probe := r.nis[1].(*composed).coh
	r.run(t,
		func(pr *proc.Proc, ni NI) {
			for i := 0; i < 60; i++ {
				m := netsim.NewSized(0, 1, 1, 48)
				for !ni.CanSend(m) {
					pr.P.SleepAs(stats.Buffering, 100*sim.Nanosecond)
					if n := probe.recvRing.tail - probe.recvRing.head; n > maxUnconsumed {
						maxUnconsumed = n
					}
				}
				sendOn(pr, ni, m)
			}
		},
		func(pr *proc.Proc, ni NI) {
			for i := 0; i < 60; i++ {
				recvOn(pr, ni)
				pr.P.SleepAs(stats.Compute, 2*sim.Microsecond) // slow consumer
			}
		})
	if maxUnconsumed > int64(DefaultConfig().CNICacheBlocks) {
		t.Fatalf("throttle let %d blocks accumulate (> %d cache blocks)",
			maxUnconsumed, DefaultConfig().CNICacheBlocks)
	}
	if r.nodes[1].NIBypasses != 0 {
		t.Fatalf("throttled sender still caused %d bypasses", r.nodes[1].NIBypasses)
	}
}

// TestThrottledEvictionReturnsCredit evicts on a throttled NI. An evicted
// message must return its credit like a consumed one, one network latency
// later, or the sender's ledger keeps its blocks and the throttle closes
// for good. The receive ring is shrunk so that the watermark sits below
// the throttle's 32-block window.
func TestThrottledEvictionReturnsCredit(t *testing.T) {
	spec := SpecFor(CNI32QmThrottle)
	spec.Overload = OverloadPolicy{AdmitPct: 25, Refuse: RefuseDrop, Evict: EvictOldest}
	r := newTwoNodesNet(t, spec, 64, netsim.DefaultConfig(), func(c *Config) { c.QmQueueBlocks = 64 })
	const count = 60
	got := 0
	r.run(t, r.sendN(count, 48), func(pr *proc.Proc, ni NI) {
		// Sleep through the burst: only evictions free credit meanwhile.
		pr.P.SleepAs(stats.Compute, 200*sim.Microsecond)
		for ni.Pending() {
			recvOn(pr, ni)
			got++
		}
		// Let the last credit cross the network before the run stops.
		pr.P.SleepAs(stats.Compute, 10*sim.Microsecond)
	})
	evicted := r.nodes[1].AdmitEvictions
	if evicted == 0 {
		t.Fatal("no message was evicted")
	}
	if got+int(evicted) != count {
		t.Fatalf("received %d and evicted %d of %d messages", got, evicted, count)
	}
	if left := r.nis[0].(*composed).coh.outstanding[1]; left != 0 {
		t.Fatalf("sender still holds %d blocks of credit for the receiver", left)
	}
}

// TestEvictionDuringHeadRead sets the eviction watermark below one
// message, so an arrival evicts the only deliverable message, also while
// the processor's head read that found it is in flight. The consume then
// finds nothing to take: Poll reports no message, and every message is
// either received or evicted.
func TestEvictionDuringHeadRead(t *testing.T) {
	for _, k := range []Kind{StarTJR, CNI512Q, CNI32Qm} {
		k := k
		t.Run(k.ShortName(), func(t *testing.T) {
			spec := SpecFor(k)
			spec.Overload = OverloadPolicy{AdmitPct: 5, Refuse: RefuseDrop, Evict: EvictOldest}
			netCfg := netsim.DefaultConfig()
			netCfg.Reliability = netsim.DefaultReliability()
			r := newTwoNodesNet(t, spec, 8, netCfg, func(c *Config) { c.QmQueueBlocks, c.CNIQueueBlocks = 64, 64 })
			const count = 40
			got, empty := 0, 0
			r.run(t, r.sendN(count, 200), func(pr *proc.Proc, ni NI) {
				q := &poller{pr: pr, ni: ni}
				for got+int(r.nodes[1].AdmitEvictions) < count {
					pending := ni.Pending()
					if m, _ := q.poll(); m != nil {
						got++
						continue
					}
					if pending {
						empty++
					}
					pr.P.SleepAs(stats.Compute, 100*sim.Nanosecond)
				}
			})
			if r.nodes[1].AdmitEvictions == 0 || empty == 0 {
				t.Fatalf("%d evictions, %d consumes that found their message evicted; want both", r.nodes[1].AdmitEvictions, empty)
			}
		})
	}
}

func TestFifoBounceNeedsProcessorRetry(t *testing.T) {
	r := newTwoNodes(t, CM5, 1, nil)
	retried := false
	r.run(t,
		func(pr *proc.Proc, ni NI) {
			// Blast 10 messages at a receiver that is asleep: bounces must
			// appear and require a software re-push, which a poll runs.
			q := &poller{pr: pr, ni: ni}
			for i := 0; i < 10; i++ {
				m := netsim.NewSized(0, 1, 1, 16)
				for !ni.CanSend(m) {
					if _, ok := q.poll(); ok {
						retried = true
					} else {
						pr.P.SleepAs(stats.Buffering, 100*sim.Nanosecond)
					}
				}
				sendOn(pr, ni, m)
				for ni.NeedsRetry() {
					_, ok := q.poll()
					retried = retried || ok
				}
			}
		},
		func(pr *proc.Proc, ni NI) {
			pr.P.SleepAs(stats.Compute, 30*sim.Microsecond)
			recvN(10)(pr, ni)
		})
	if r.nodes[0].Bounces == 0 {
		t.Fatal("no bounces with one flow-control buffer and a sleeping receiver")
	}
	if !retried {
		t.Fatal("bounces never required processor retry")
	}
	if got := r.nodes[1].FragmentsReceived; got != 10 {
		t.Fatalf("received %d, want 10 (messages lost in retry)", got)
	}
}

func TestCNIHardwareRetry(t *testing.T) {
	r := newTwoNodes(t, CNI32Qm, 1, nil)
	r.run(t,
		r.sendN(10, 48),
		func(pr *proc.Proc, ni NI) {
			if ni.NeedsRetry() {
				t.Error("CNI reported processor retry work")
			}
			recvN(10)(pr, ni)
		})
	// Retries (if any) were hardware-managed.
	if r.nodes[1].FragmentsReceived != 10 {
		t.Fatalf("received %d, want 10", r.nodes[1].FragmentsReceived)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := KindByName(k.ShortName())
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got != k {
			t.Fatalf("round trip %v -> %q -> %v", k, k.ShortName(), got)
		}
	}
	if _, err := KindByName("nonesuch"); err == nil {
		t.Fatal("bogus name resolved")
	}
}

// The layer enums print their table name, and an unset or out-of-range
// value its numeric fallback.
func TestLayerEnumStrings(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{UncachedWordEngine.String(), "uword"},
		{RDMAEngine.String(), "rdma"},
		{EngineNone.String(), "engine0"},
		{numEngines.String(), "engine8"},
		{FifoVM.String(), "fifovm"},
		{NICachedRing.String(), "nicache"},
		{BufferingNone.String(), "buffering0"},
		{Buffering(-1).String(), "buffering-1"},
		{RefuseBounce.String(), "bounce"},
		{RefuseDrop.String(), "drop"},
		{numRefuseActions.String(), "refuse2"},
	} {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestCatalogMatchesTable2(t *testing.T) {
	cat := Catalog()
	if len(cat) != 7 {
		t.Fatalf("catalog has %d entries, want 7", len(cat))
	}
	procInvolved := map[Kind]bool{
		CM5: true, UDMA: true, AP3000: true, CNI512Q: true,
		StarTJR: false, MemoryChannel: false, CNI32Qm: false,
	}
	for _, e := range cat {
		if want := procInvolved[e.Kind]; e.ProcInvolve != want {
			t.Errorf("%s: ProcInvolve = %v, want %v", e.Notation, e.ProcInvolve, want)
		}
		if e.Kind == CM5 && e.SendSize != "Uncached" {
			t.Errorf("NI_2w send size = %q", e.SendSize)
		}
		if e.Kind != CM5 && e.SendSize != "Block" {
			t.Errorf("%s send size = %q, want Block", e.Notation, e.SendSize)
		}
	}
}

// Property: a CNI ring maps logical indices to addresses consistently —
// logicalAt inverts addr for any in-window logical index.
func TestRingLogicalAtInvertsAddr(t *testing.T) {
	f := func(capRaw uint8, headRaw, offRaw uint16) bool {
		capBlocks := int64(capRaw%200) + 8
		r := cniRing{base: QmRecvBase, cap: capBlocks}
		head := int64(headRaw)
		off := int64(offRaw) % capBlocks
		li := head + off
		limit := head + capBlocks // window of live logical indices
		got := r.logicalAt(r.addr(li), limit)
		// got must alias li and be within (limit-cap, limit].
		return (got-li)%capBlocks == 0 && got <= limit-1 && got > limit-1-capBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: every NI delivers every payload size without loss.
func TestAnyPayloadSizeDelivered(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		kind := Kinds()[int(raw[0])%len(Kinds())]
		r := newTwoNodes(t, kind, 4, nil)
		count := len(raw)
		ok := true
		done := 0
		p0 := r.eng.Spawn("s", func(p *sim.Process) {
			q := &poller{pr: r.procs[0], ni: r.nis[0]}
			for _, b := range raw {
				payload := int(b) % 240 // stay within one network message
				m := netsim.NewSized(0, 1, 1, payload)
				for !r.nis[0].CanSend(m) {
					if _, ok := q.poll(); !ok {
						p.SleepAs(stats.Buffering, 100*sim.Nanosecond)
					}
				}
				sendOn(r.procs[0], r.nis[0], m)
			}
			for r.net.Delivered() < int64(count) {
				if _, ok := q.poll(); !ok {
					p.SleepAs(stats.Buffering, 100*sim.Nanosecond)
				}
			}
			done++
		})
		r.procs[0].Bind(p0)
		p1 := r.eng.Spawn("r", func(p *sim.Process) {
			for i := 0; i < count; i++ {
				recvOn(r.procs[1], r.nis[1])
			}
			done++
		})
		r.procs[1].Bind(p1)
		r.eng.RunWhile(func() bool { return done < 2 })
		if done < 2 {
			ok = false
		}
		r.eng.Drain()
		return ok && r.nodes[1].FragmentsReceived == int64(count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestClosedTrainTiesWithArrival sends a receiver one message, then,
// after a swept delay, a header-only one, and has the receiver poll the
// instant its receive train for the first one wakes it. At some delays
// the second message's ejection ends exactly then, in a tie with the
// train's last event that the stepwise train loses: its resume is
// scheduled later in the instant the ejection is. A closed train must
// schedule its last events so that it loses the same ties, so on every
// fifo NI the untraced (closed) receiver must see what the traced
// (stepwise) one sees. AP3000's receive ends in an 8-cycle block-buffer
// drain, which ties with an 8 B ejection when it ends at once.
func TestClosedTrainTiesWithArrival(t *testing.T) {
	run := func(kind Kind, payload int, gap sim.Time, traced bool) (hit, tie bool, end sim.Time) {
		r := newTwoNodes(t, kind, 8, nil)
		if traced {
			r.procs[1].Bus.Trace = func(string, ...any) {}
		}
		ep := r.net.Endpoint(1)
		var accepted sim.Time
		accept := ep.OnAccept
		ep.OnAccept = func(m *netsim.Message) {
			accepted = r.eng.Now()
			accept(m)
		}
		if r.procs[1].Bus.ClosedTrains() == traced {
			t.Fatalf("%s: ClosedTrains() = %v with traced = %v", kind.ShortName(), !traced, traced)
		}
		r.run(t, func(pr *proc.Proc, ni NI) {
			sendOn(pr, ni, netsim.NewSized(0, 1, 1, payload))
			pr.P.Sleep(gap)
			sendOn(pr, ni, netsim.NewSized(0, 1, 1, 0))
		}, func(pr *proc.Proc, ni NI) {
			recvOn(pr, ni)
			tie = accepted == pr.P.Now()
			if m, _ := (&poller{pr: pr, ni: ni}).poll(); m != nil {
				hit = true
			} else {
				recvOn(pr, ni)
			}
			end = pr.P.Now()
		})
		return hit, tie, end
	}
	ties := 0
	for _, kind := range []Kind{CM5, CM5SingleCycle, AP3000, UDMA} {
		for _, payload := range []int{56, 120} {
			for gap := sim.Time(0); gap < 600*sim.Nanosecond; gap += sim.Nanosecond {
				hit, _, end := run(kind, payload, gap, false)
				wantHit, tie, wantEnd := run(kind, payload, gap, true)
				if hit != wantHit || end != wantEnd {
					t.Fatalf("%s %d B, gap %v: closed poll hit=%v, done at %v; stepwise hit=%v, done at %v",
						kind.ShortName(), payload, gap, hit, end, wantHit, wantEnd)
				}
				if kind == AP3000 && tie {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Error("no AP3000 gap accepted the second message the instant the receive train woke")
	}
}
