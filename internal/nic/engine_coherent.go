package nic

import (
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
//
// The NI's send and receive engines are hardware state machines driven by
// events, not processes (sendRun, recvRun). Each continuation runs in the
// slot Unpark takes, AfterEvent(0) from a transaction's completion or from
// the call point of what the engine waits for, so the engines' events
// keep the queue keys of engines written as processes. A waiting engine
// leaves its stage and, for a wait on another party, what it waits for.
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

	// The processor's trains: a send's compose, a receive's consume and an
	// unsuccessful poll's head read. The processor runs one at a time, so
	// they share the Train.
	tr        proc.Train
	composing composeSteps
	consuming consumeSteps
	missing   proc.OneStep

	// The processor's call in progress (NI.Send, Poll, Recv), run in
	// event context while its process stays parked: the caller,
	// where the call ends, whether a receive polls (an eviction during its
	// head read ends it with no message) or waits on, and, while it waits
	// for a deliverable message, since when.
	caller   *proc.Proc
	sent     sim.Handler
	received Received
	doneRecv any
	polling  bool
	waiting  bool
	since    sim.Time

	// Send side, used only when the spec's send engine is coherent.
	sendQ      queue[ringEntry]
	doorbelled int64 // logical tail covered by doorbells
	// fetched marks send blocks the NI already holds, indexed by logical
	// block modulo the ring capacity: marks lie between the send ring's
	// head and tail, at most one capacity apart.
	fetched []bool
	// The send engine (sendRun): its stage, what it waits for, the
	// message it is moving and the next block to fetch.
	sendAt   sendStage
	sendWait cniWait
	sendCur  ringEntry
	sendBlk  int64

	// Receive side.
	acceptQ     msgQueue
	deliverable queue[ringEntry]
	// The receive engine (recvRun): its stage, what it waits for, the
	// message it is depositing (its ring entry once it has ring space),
	// the next block, and the bus idiom of a deposit through the bus.
	recvAt   recvStage
	recvWait cniWait
	recvCur  ringEntry
	recvBlk  int64
	recvKind membus.Kind

	// Send throttling (CNI_32Q_m+Throttle): a software credit scheme that
	// keeps, per destination node, no more unconsumed blocks outstanding
	// than the receiver's NI cache holds. outstanding is the sender-side
	// ledger, indexed by node; retiring a message at the receiver returns
	// the credit as a control post that lands here one network latency
	// later (creditReturn).
	outstanding []int64
}

// cniWait is what a waiting coherent NI engine waits for: the event whose
// call point runs its kick.
type cniWait int8

const (
	waitNone    cniWait = iota
	waitWork            // a doorbell (send) or an accepted message (receive)
	waitOut             // a free network out-buffer (send)
	waitConsume         // a retired receive entry: ring space or NI-cache room
)

// ringEntry is one queued message: nb blocks of a ring from logical start.
type ringEntry struct {
	m       *netsim.Message
	start   int64
	nb      int64
	inCache bool // receive blocks resident in the NI cache (NICachedRing)
}

func newCoherent(env *Env, spec Spec) *coherent {
	c := &coherent{
		env:       env,
		snoopName: spec.Name(),
		throttle:  spec.Throttle,
		sendWait:  waitWork,
		recvWait:  waitWork,
	}
	c.composing.c, c.consuming.c = c, c
	if c.throttle {
		c.outstanding = make([]int64, env.EP.Nodes())
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
		c.kickRecv(waitWork)
	}
	if spec.Send == CoherentEngine {
		// Specs that only receive coherently (Memory Channel, RDMA, and
		// fifo-send cross points) send through another engine, so the
		// NI-side send machine's out-buffer hook is left unwired.
		env.EP.OnOutFree = func() { c.kickSend(waitOut) }
	}
	return c
}

// kickSend continues the send engine if it waits for w, in the slot
// Unpark takes from here.
func (c *coherent) kickSend(w cniWait) {
	if c.sendWait == w {
		c.sendWait = waitNone
		c.env.Eng.AfterEvent(0, cniSendStep, c, 0)
	}
}

// kickRecv is kickSend for the receive engine.
func (c *coherent) kickRecv(w cniWait) {
	if c.recvWait == w {
		c.recvWait = waitNone
		c.env.Eng.AfterEvent(0, cniRecvStep, c, 0)
	}
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

// send is the processor side of a coherent transmit, in event context
// (NI.Send): compose the message into cacheable queue memory and ring
// the doorbell, as one access train; the NI manages the transfer from
// there, so the processor is released where the train ends (cniComposed).
// It requires canSend. When throttled (CNI_32Q_m+Throttle), the message
// takes its blocks of the receiver's credit, so no more unconsumed blocks
// are outstanding than the receiver's NI cache holds, and the receiver
// keeps consuming from fast NI SRAM instead of main memory; retire
// returns the credit.
//
//lint:hotpath
func (c *coherent) send(pr *proc.Proc, m *netsim.Message, done sim.Handler, recv any) {
	if !c.canSend(m) {
		panic("nic: Send without CanSend")
	}
	nb := int64(blocksFor(m))
	if c.throttle {
		c.outstanding[m.Dst] += nb
	}
	start := c.sendRing.tail
	c.sendRing.tail += nb
	c.composing.m, c.composing.start, c.composing.i = m, start, 0
	c.sent, c.doneRecv = done, recv
	c.tr.Start(pr, stats.Transfer, &c.composing, cniComposed, c)
}

// cniComposed ends a send's compose train: the message joins the NI's
// send queue and the send engine is kicked; the send is over.
//
//lint:hotpath
func cniComposed(recv any, _ uint64) {
	c := recv.(*coherent)
	m, start := c.composing.m, c.composing.start
	nb := int64(blocksFor(m))
	c.doorbelled = c.sendRing.tail
	c.sendQ.push(ringEntry{m: m, start: start, nb: nb})
	if tr := c.env.Trace; tr != nil {
		tr("engine compose dst=%d blocks=%d ring=[%d,%d)", m.Dst, nb, c.sendRing.head, c.sendRing.tail)
	}
	c.kickSend(waitWork)
	done, r := c.sent, c.doneRecv
	c.sent, c.doneRecv = nil, nil
	done(r, 0)
}

// composeSteps is the cursor of a send's train: a cached store of each
// block of message m at logical send-ring block start on, then the lazy
// tail-pointer update (cacheable), the doorbell.
type composeSteps struct {
	c        *coherent
	m        *netsim.Message
	start, i int64 // i counts the steps taken
}

// Next implements proc.Steps.
//
//lint:hotpath
func (s *composeSteps) Next(st *proc.Step) bool {
	c, nb := s.c, int64(blocksFor(s.m))
	switch {
	case s.i < nb:
		*st = proc.CachedStep(true, c.sendRing.addr(s.start+s.i), blockBytes(s.m, s.i))
	case s.i == nb:
		*st = proc.CachedStep(true, c.sendPtr, 8)
	default:
		return false
	}
	s.i++
	return true
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
// ledger write stays shard-local.
//
//lint:hotpath
func (c *coherent) creditReturn(arg uint64) {
	c.outstanding[arg>>creditNodeShift] -= int64(arg & creditBlockMask)
}

// sendStage is where the send engine stands in moving a message.
type sendStage int8

const (
	sendIdle    sendStage = iota // next: take a doorbelled message
	sendFetch                    // next: fetch block sendBlk on
	sendFetched                  // the fetch before sendBlk completed
	sendInject                   // next: take an out-buffer and inject
)

// cniSendStep is the send engine's continuation event.
//
//lint:hotpath
func cniSendStep(recv any, _ uint64) { recv.(*coherent).sendRun() }

// cniSendDone is the completion hook of a send-block fetch: the engine
// continues in the slot Unpark takes.
//
//lint:hotpath
func cniSendDone(recv any, _ uint64) {
	recv.(*coherent).env.Eng.AfterEvent(0, cniSendStep, recv, 0)
}

// sendRun is the NI-side send state machine: fetch message blocks from
// the processor's cache (or memory) with coherent reads, then inject. It
// runs until it must wait: for a fetch, a doorbell or an out-buffer.
//
//lint:hotpath
func (c *coherent) sendRun() {
	for {
		switch c.sendAt {
		case sendIdle:
			if c.sendQ.len() == 0 {
				c.sendWait = waitWork
				return
			}
			c.sendCur, c.sendBlk, c.sendAt = c.sendQ.pop(), 0, sendFetch
		case sendFetched:
			// The local store of the fetched block lands in the device's
			// write buffer; reads bypass it, so it neither stalls the
			// engine nor delays subsequent reads. Only the SRAM caches,
			// being single-ported, charge their occupancy.
			if c.fetchStore != nil {
				c.fetchStore.Claim()
			}
			c.sendAt = sendFetch
		case sendFetch:
			e := &c.sendCur
			for c.sendBlk < e.nb {
				li := e.start + c.sendBlk
				c.sendBlk++
				if c.fetched[li%c.sendRing.cap] {
					c.fetched[li%c.sendRing.cap] = false
					continue
				}
				c.sendAt = sendFetched
				c.env.Bus.Issue(c, membus.GetS, c.sendRing.addr(li), 0, cniSendDone, c)
				return
			}
			c.sendAt = sendInject
		case sendInject:
			if !c.env.EP.TryAcquireOut() {
				c.sendWait = waitOut
				return
			}
			e := &c.sendCur
			c.env.EP.Inject(e.m)
			if tr := c.env.Trace; tr != nil {
				tr("engine inject dst=%d blocks=%d", e.m.Dst, e.nb)
			}
			c.sendRing.head = e.start + e.nb
			c.sendCur, c.sendAt = ringEntry{}, sendIdle
		}
	}
}

// recvStage is where the receive engine stands in depositing a message.
type recvStage int8

const (
	recvIdle     recvStage = iota // next: take an accepted message
	recvRing                      // next: claim receive-ring space
	recvDeposit                   // next: start the deposit (ring.go)
	recvRoom                      // next: (no-bypass ablation) find NI-cache room
	recvPlace                     // next: the NI cache, or bypass to memory
	recvCache                     // next: write block recvBlk on into the NI cache
	recvCached                    // the Invalidate of block recvBlk completed
	recvBypassed                  // the bypass's head-pointer read completed
	recvWrite                     // next: deposit block recvBlk on through the bus
	recvDone                      // next: release the flow-control buffer, deliver
)

// cniRecvStep is the receive engine's continuation event.
//
//lint:hotpath
func cniRecvStep(recv any, _ uint64) { recv.(*coherent).recvRun() }

// cniRecvDone is the completion hook of a deposit's transaction: the
// engine continues in the slot Unpark takes.
//
//lint:hotpath
func cniRecvDone(recv any, _ uint64) {
	recv.(*coherent).env.Eng.AfterEvent(0, cniRecvStep, recv, 0)
}

// recvRun is the NI-side receive state machine: move each accepted
// message from its incoming flow-control buffer into the receive queue;
// the ring store decides where the blocks land (deposit). It runs until it
// must wait: for a transaction, an accepted message or a retired entry.
//
//lint:hotpath
func (c *coherent) recvRun() {
	for {
		e := &c.recvCur
		switch c.recvAt {
		case recvIdle:
			if c.acceptQ.len() == 0 {
				c.recvWait = waitWork
				return
			}
			m := c.acceptQ.pop()
			c.recvCur, c.recvAt = ringEntry{m: m, nb: int64(blocksFor(m))}, recvRing
		case recvRing:
			if c.recvRing.tail+e.nb-c.recvRing.head > c.recvRing.cap {
				// Queue full: hold the flow-control buffer (backpressure).
				c.recvWait = waitConsume
				return
			}
			e.start = c.recvRing.tail
			c.recvRing.tail += e.nb
			c.recvBlk, c.recvAt = 0, recvDeposit
		case recvDone:
			c.env.EP.ReleaseIn()
			c.deliverable.push(*e)
			c.recvCur, c.recvAt = ringEntry{}, recvIdle
			c.wake()
		default:
			if c.deposit() {
				return
			}
		}
	}
}

// pollMiss is an unsuccessful sense-reverse poll, run in event context
// (NI.PollMiss): a cached read of the head block, a 1-cycle hit while
// nothing has arrived, so the monitoring cost of a coherent NI is a cache
// hit rather than an uncached bus round trip, charged to Buffering. (Once
// the NI deposits a message there, the same read is a coherent fetch from
// the NI cache, NI memory or DRAM: consume's first step.) A coherent NI
// retries returned messages itself, so the poll ends with the head read.
//
//lint:hotpath
func (c *coherent) pollMiss(pr *proc.Proc, done sim.Handler, recv any) {
	head := proc.CachedStep(false, c.recvRing.addr(c.recvRing.head), 8)
	c.tr.Start(pr, stats.Buffering, c.missing.Set(head), done, recv)
}

// receive is the processor's receive in event context: a poll's
// (NI.Poll) or a blocking receive's (NI.Recv), which first waits
// for a deliverable message, charging the wait to Compute (wake).
//
//lint:hotpath
func (c *coherent) receive(pr *proc.Proc, polling bool, done Received, recv any) {
	c.caller, c.polling, c.received, c.doneRecv = pr, polling, done, recv
	c.consume()
}

// consume is the receive's next turn, where the process would take it: it
// waits while nothing is deliverable, and otherwise runs the consume
// train, the processor's receive of the head message: the head read that
// finds it, its blocks, the copy into the user buffer and the
// head-pointer update.
//
//lint:hotpath
func (c *coherent) consume() {
	if c.deliverable.len() == 0 {
		c.waiting, c.since = true, c.env.Eng.Now()
		return
	}
	c.consuming.i = 0
	c.tr.Start(c.caller, stats.Transfer, &c.consuming, cniConsumed, c)
}

// wake is the call point of a deposit's delivery: a waiting receive
// consumes on in the slot its Unpark takes.
//
//lint:hotpath
func (c *coherent) wake() {
	if c.waiting && !c.caller.P.Done() {
		c.waiting = false
		c.env.Eng.AfterEvent(0, cniWoke, c, 0)
	}
}

// cniWoke ends a receive's wait, charging it to Compute.
//
//lint:hotpath
func cniWoke(recv any, _ uint64) {
	c := recv.(*coherent)
	p := c.caller.P
	if p.Done() {
		return
	}
	p.Charge(stats.Compute, c.since)
	c.consume()
}

// cniConsumed ends a consume train and the receive with the message it
// took. When an overload eviction took the only deliverable message while
// the head read was in flight, a poll ends with none and a blocking
// receive waits again.
//
//lint:hotpath
func cniConsumed(recv any, _ uint64) {
	c := recv.(*coherent)
	e := c.consuming.e
	if e.m == nil && !c.polling {
		c.consume()
		return
	}
	if e.m != nil {
		c.consuming.e = ringEntry{}
		c.retire(e)
		recordRecv(c.env)
	}
	done, r := c.received, c.doneRecv
	c.received, c.doneRecv = nil, nil
	done(r, e.m)
}

// consumeSteps is the cursor of a receive's train: a cached load of the
// head block; then the entry the processor found there, taken off the
// deliverable queue only once that load is done (an overload eviction
// meanwhile takes the entry the load found, and when it took the only one
// the train ends with no entry); a cached load of each of its blocks; the
// copy into the user buffer, one store per 8 bytes; and the lazy
// head-pointer update (cacheable).
type consumeSteps struct {
	c *coherent
	e ringEntry
	i int64 // steps taken
}

// Next implements proc.Steps.
//
//lint:hotpath
func (s *consumeSteps) Next(st *proc.Step) bool {
	c := s.c
	if s.i == 0 {
		*st = proc.CachedStep(false, c.recvRing.addr(c.recvRing.head), 8)
		s.i++
		return true
	}
	if s.i == 1 {
		if c.deliverable.len() == 0 {
			return false // evicted during the head read
		}
		s.e = c.deliverable.pop()
	}
	switch b := s.i - 1; {
	case b < s.e.nb:
		*st = proc.CachedStep(false, c.recvRing.addr(s.e.start+b), blockBytes(s.e.m, b))
	case b == s.e.nb:
		*st = proc.CachedStep(true, c.recvPtr, 8)
		st.Cycles = int64((s.e.m.Size() + 7) / 8)
	default:
		return false
	}
	s.i++
	return true
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
	c.kickRecv(waitConsume)
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
