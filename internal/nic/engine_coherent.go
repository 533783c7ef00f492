package nic

import (
	"fmt"

	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// coherent is the Coherent Network Interface transfer engine (the CNI
// family). Processors and the NI communicate through memory-based queues
// managed with the lazy-pointer, message-valid-bit, and sense-reverse
// optimizations of Mukherjee et al. [29]: no per-message pointer bus
// traffic — the processor discovers new messages by reading the (cacheable)
// head block itself, and the NI discovers new sends from a doorbell plus
// coherent fetches.
//
// Where queue storage lives — and therefore what bus idiom each deposited
// block pays, when the cache bypasses, and how dead blocks are reclaimed —
// is the ring store's data (ring.go), set from the Spec's buffering.
//
// The NI-homed and NI-cached rings also prefetch send blocks: observing
// the processor's request-for-exclusive on block k+1 of a message triggers
// a fetch of block k, overlapping message creation with transfer.
type coherent struct {
	env       *Env
	snoopName string

	prefetch bool
	throttle bool

	sendRing, recvRing cniRing
	sendPtr, recvPtr   membus.Addr // cacheable head/tail pointer blocks

	// The ring store (ring.go): the bus idiom of a deposited block and its
	// trace name, the device memories a fetched and a prefetched send
	// block are stored in (nil: none is charged), and the NI cache, which
	// only NICachedRing has.
	depositKind               membus.Kind
	depositMode               string
	fetchStore, prefetchStore *mainmem.Memory
	cache                     *niCache

	// Send side, built only when the spec's send engine is coherent.
	sendQ      queue[ringEntry]
	sendWork   *sim.Cond
	sendSpace  *sim.Cond // ring space freed
	outFree    *sim.Cond // network out-buffer freed
	doorbelled int64     // logical tail covered by doorbells
	// fetched marks send blocks the NI already holds, indexed by logical
	// block modulo the ring capacity: marks lie between the send ring's
	// head and tail, at most one capacity apart.
	fetched []bool

	// Receive side.
	acceptQ     msgQueue
	recvWork    *sim.Cond
	deliverable queue[ringEntry]
	recvCond    *sim.Cond
	consumeCond *sim.Cond

	// Send throttling (CNI_32Q_m+Throttle): a software credit scheme that
	// keeps, per destination node, no more unconsumed blocks outstanding
	// than the receiver's NI cache holds. outstanding is the sender-side
	// ledger, indexed by node; retiring a message at the receiver returns
	// the credit as a control post that lands here one network latency
	// later (creditReturn).
	outstanding  []int64
	throttleCond *sim.Cond
}

// ringEntry is one queued message: nb blocks of a ring from logical start.
type ringEntry struct {
	m       *netsim.Message
	start   int64
	nb      int64
	inCache bool // receive blocks resident in the NI cache (NICachedRing)
}

func newCoherent(env *Env, spec Spec) *coherent {
	c := &coherent{
		env:         env,
		snoopName:   spec.Name(),
		throttle:    spec.Throttle,
		recvWork:    sim.NewCond(env.Eng),
		recvCond:    sim.NewCond(env.Eng),
		consumeCond: sim.NewCond(env.Eng),
	}
	if c.throttle {
		c.outstanding = make([]int64, env.EP.Nodes())
		c.throttleCond = sim.NewCond(env.Eng)
		env.EP.OnControl = c.creditReturn
	}
	c.installRings(spec.Buffering)
	c.prefetch = c.prefetchStore != nil && !env.Cfg.DisableCNIPrefetch
	c.fetched = make([]bool, c.sendRing.cap)
	env.Bus.AttachSnooper(c)
	env.EP.OnAccept = func(m *netsim.Message) {
		c.acceptQ.push(m)
		if tr := env.Trace; tr != nil {
			tr("buffer accept src=%d size=%dB queued=%d", m.Src, m.Size(), c.acceptQ.len())
		}
		c.recvWork.Broadcast()
	}
	if spec.Send == CoherentEngine {
		// Specs that only receive coherently (Memory Channel, RDMA, and
		// fifo-send cross points) send through another engine, so the
		// NI-side send machine and its out-buffer hook are left unbuilt.
		c.sendWork = sim.NewCond(env.Eng)
		c.sendSpace = sim.NewCond(env.Eng)
		c.outFree = sim.NewCond(env.Eng)
		env.EP.OnOutFree = func() { c.outFree.Broadcast() }
		env.Eng.Spawn(fmt.Sprintf("cni-send-%d", env.ID), c.sendEngine)
	}
	env.Eng.Spawn(fmt.Sprintf("cni-recv-%d", env.ID), c.recvEngine)
	return c
}

// SnooperName implements membus.Snooper.
func (c *coherent) SnooperName() string { return c.snoopName }

// Snoop implements membus.Snooper: let the NI cache supply receive-queue
// blocks it holds, and watch the send queue for prefetch opportunities.
func (c *coherent) Snoop(t *membus.Transaction) membus.SnoopReply {
	switch t.Kind { //lint:allow exhaustive NI rings react only to reads and ownership requests; other snooped kinds pass unanswered
	case membus.GetS:
		if c.cache != nil {
			return c.cacheSupply(t.Addr)
		}
	case membus.GetX, membus.Upgrade:
		if c.sendRing.contains(t.Addr) {
			c.snoopCompose(t.Addr)
		}
	}
	return membus.SnoopReply{}
}

// snoopCompose reacts to the processor taking exclusive ownership of a send
// queue block: drop any stale NI copy (fetched too early ⇒ refetch later)
// and, with prefetch enabled, start fetching the previous block of the
// message being composed.
func (c *coherent) snoopCompose(a membus.Addr) {
	li := c.sendRing.logicalAt(a, c.sendRing.tail)
	if c.fetched[li%c.sendRing.cap] {
		c.fetched[li%c.sendRing.cap] = false
		c.env.Stats.Refetches++
	}
	if !c.prefetch {
		return
	}
	prev := li - 1
	if prev < c.doorbelled || c.fetched[prev%c.sendRing.cap] {
		return
	}
	c.fetched[prev%c.sendRing.cap] = true
	c.env.Stats.Prefetches++
	c.env.Bus.Issue(c, membus.GetS, c.sendRing.addr(prev), 0, prefetchDone, c)
}

// prefetchDone is the completion hook of a send-queue prefetch: the
// fetched block's local store.
func prefetchDone(recv any, _ uint64) { recv.(*coherent).prefetchStore.Claim() }

// send is the processor side of a coherent transmit: compose the message
// into cacheable queue memory and ring the doorbell; the NI manages the
// transfer from there, so the processor is released immediately (modulo
// throttling).
func (c *coherent) send(pr *proc.Proc, m *netsim.Message) {
	nb := int64(blocksFor(m))
	if c.throttle {
		c.throttleWait(pr, m, nb)
	}
	if c.sendRing.tail+nb-c.sendRing.head > c.sendRing.cap {
		c.env.Stats.SendBlocked++
		for c.sendRing.tail+nb-c.sendRing.head > c.sendRing.cap {
			c.sendSpace.WaitAs(pr.P, stats.Buffering)
		}
	}
	start := c.sendRing.tail
	c.sendRing.tail += nb
	for i := int64(0); i < nb; i++ {
		pr.CachedWrite(stats.Transfer, c.sendRing.addr(start+i), blockBytes(m, i))
	}
	// Lazy tail-pointer update (cacheable) — the doorbell.
	pr.CachedWrite(stats.Transfer, c.sendPtr, 8)
	c.doorbelled = c.sendRing.tail
	c.sendQ.push(ringEntry{m: m, start: start, nb: nb})
	if tr := c.env.Trace; tr != nil {
		tr("engine compose dst=%d blocks=%d ring=[%d,%d)", m.Dst, nb, c.sendRing.head, c.sendRing.tail)
	}
	c.sendWork.Broadcast()
}

// throttleWait models CNI_32Q_m+Throttle: a software credit scheme holds
// the sender until the receiver's NI cache has room for the message, so the
// receiver keeps consuming from fast NI SRAM instead of overflowing to main
// memory. Credits return when the receiver retires the message (retire).
func (c *coherent) throttleWait(pr *proc.Proc, m *netsim.Message, nb int64) {
	for c.outstanding[m.Dst]+nb > int64(c.env.Cfg.CNICacheBlocks) {
		c.throttleCond.WaitAs(pr.P, stats.Buffering)
	}
	c.outstanding[m.Dst] += nb
}

// Credit returns pack (retiring node, blocks) into the control arg.
const (
	creditNodeShift = 32
	creditBlockMask = 1<<creditNodeShift - 1
)

// creditReturn is the endpoint's control hook on a throttled NI: a credit
// arriving back at the sender one network latency after the receiver
// retired the message. arg packs the receiving node's id and the number of
// blocks freed. It runs on the sender's own engine (netsim routes it across
// the partition seam when the two nodes live on different shards), so the
// ledger write and the wakeup stay shard-local.
//
//lint:hotpath
func (c *coherent) creditReturn(arg uint64) {
	c.outstanding[arg>>creditNodeShift] -= int64(arg & creditBlockMask)
	c.throttleCond.Broadcast()
}

// sendEngine is the NI-side send state machine: fetch message blocks from
// the processor's cache (or memory) with coherent reads, then inject.
func (c *coherent) sendEngine(p *sim.Process) {
	for {
		for c.sendQ.len() == 0 {
			c.sendWork.Wait(p)
		}
		e := c.sendQ.pop()
		for i := int64(0); i < e.nb; i++ {
			li := e.start + i
			if c.fetched[li%c.sendRing.cap] {
				c.fetched[li%c.sendRing.cap] = false
				continue
			}
			c.env.Bus.AccessFrom(p, c, membus.GetS, c.sendRing.addr(li), 0)
			// The local store of the fetched block lands in the device's
			// write buffer; reads bypass it, so it neither stalls the engine
			// nor delays subsequent reads. Only the SRAM caches, being
			// single-ported, charge their occupancy.
			if c.fetchStore != nil {
				c.fetchStore.Claim()
			}
		}
		for !c.env.EP.TryAcquireOut() {
			c.outFree.Wait(p)
		}
		c.env.EP.Inject(e.m)
		if tr := c.env.Trace; tr != nil {
			tr("engine inject dst=%d blocks=%d", e.m.Dst, e.nb)
		}
		c.sendRing.head = e.start + e.nb
		c.sendSpace.Broadcast()
	}
}

// recvEngine is the NI-side receive state machine: move each accepted
// message from its incoming flow-control buffer into the receive queue; the
// ring store decides where the blocks land.
func (c *coherent) recvEngine(p *sim.Process) {
	for {
		for c.acceptQ.len() == 0 {
			c.recvWork.Wait(p)
		}
		m := c.acceptQ.pop()
		nb := int64(blocksFor(m))
		for c.recvRing.tail+nb-c.recvRing.head > c.recvRing.cap {
			// Queue full: hold the flow-control buffer (backpressure).
			c.consumeCond.Wait(p)
		}
		start := c.recvRing.tail
		c.recvRing.tail += nb
		inCache := c.deposit(p, start, nb)
		c.env.EP.ReleaseIn()
		c.deliverable.push(ringEntry{m: m, start: start, nb: nb, inCache: inCache})
		c.recvCond.Broadcast()
	}
}

// poll is a sense-reverse poll: a cached read of the head block — a 1-cycle
// cache hit while nothing has arrived, a coherent fetch (from the NI cache,
// NI memory, or DRAM, depending on the ring store) when the NI has
// deposited a message there.
func (c *coherent) poll(pr *proc.Proc) (*netsim.Message, bool) {
	if c.deliverable.len() == 0 {
		// Unsuccessful poll: a cache-resident head read, so the monitoring
		// cost of a coherent NI is a 1-cycle hit rather than an uncached
		// bus round trip.
		pr.CachedRead(stats.Buffering, c.recvRing.addr(c.recvRing.head), 8)
		return nil, false
	}
	pr.CachedRead(stats.Transfer, c.recvRing.addr(c.recvRing.head), 8)
	return c.consume(pr), true
}

// recv blocks until a message is deliverable, then consumes it.
func (c *coherent) recv(pr *proc.Proc) *netsim.Message {
	for c.deliverable.len() == 0 {
		c.recvCond.WaitAs(pr.P, stats.Compute)
	}
	pr.CachedRead(stats.Transfer, c.recvRing.addr(c.recvRing.head), 8)
	return c.consume(pr)
}

func (c *coherent) consume(pr *proc.Proc) *netsim.Message {
	e := c.deliverable.pop()
	m := e.m
	for i := int64(0); i < e.nb; i++ {
		pr.CachedRead(stats.Transfer, c.recvRing.addr(e.start+i), blockBytes(m, i))
	}
	// Copy payload into the user buffer: one store per 8 bytes.
	pr.Work(stats.Transfer, int64((m.Size()+7)/8))
	// Lazy head-pointer update (cacheable).
	pr.CachedWrite(stats.Transfer, c.recvPtr, 8)

	c.retire(e)
	recordRecv(c.env, m)
	return m
}

// retire frees the receive-queue blocks of e, the oldest entry, once the
// processor consumed it or the overload policy evicted it.
func (c *coherent) retire(e ringEntry) {
	c.recvRing.head = e.start + e.nb
	if c.throttle {
		// Every node is built from one Spec, so the sender throttles too.
		// The credit rides back to it as a control post, one network
		// latency out — the same lag as an ack — rather than a
		// same-instant write into its ledger. On a partitioned machine the
		// sender may live on another shard, so the only legal channel is
		// the message seam (DESIGN.md §10.1); keeping the identical lag on
		// the serial engine keeps serial and sharded runs byte-identical.
		c.env.EP.PostControl(e.m.Src, uint64(c.env.ID)<<creditNodeShift|uint64(e.nb))
		// The head moved, so the NI can reclaim dead blocks without
		// waiting for a bypass.
		c.reclaim()
	}
	if c.cache != nil {
		if e.inCache {
			c.env.Stats.NICacheHits += e.nb
		} else {
			c.env.Stats.NICacheMisses += e.nb
		}
	}
	c.consumeCond.Broadcast()
}

// pending reports whether a consume would succeed now.
func (c *coherent) pending() bool { return c.deliverable.len() > 0 }

// canSend reports whether the send queue has ring space (and, for the
// throttled variant, whether the receiver has credit).
func (c *coherent) canSend(m *netsim.Message) bool {
	nb := int64(blocksFor(m))
	return c.sendRing.tail+nb-c.sendRing.head <= c.sendRing.cap &&
		(!c.throttle || c.outstanding[m.Dst]+nb <= int64(c.env.Cfg.CNICacheBlocks))
}

// idle reports whether the NI-side send engine has drained its queue.
func (c *coherent) idle() bool { return c.sendQ.len() == 0 }
