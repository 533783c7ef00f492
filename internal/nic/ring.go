package nic

import (
	"slices"

	"nisim/internal/mainmem"
	"nisim/internal/membus"
)

// The ring store: where the coherent engine's queues live. The three ring
// bufferings (spec.go) differ only in Table 2's location parameter, so
// they are data here, not code: a ring geometry, the bus idiom a deposited
// block pays, the device memory a fetched send block is stored in, and,
// for NICachedRing alone, an NI cache over the memory-homed rings.

// cniRing is a queue of 64-byte blocks with monotonically increasing
// logical head/tail indices mapped onto a fixed physical ring.
type cniRing struct {
	base membus.Addr
	cap  int64 // capacity in blocks
	head int64 // first live block
	tail int64 // first free block
}

func (r *cniRing) addr(logical int64) membus.Addr {
	return r.base + membus.Addr(logical%r.cap)*membus.BlockSize
}

func (r *cniRing) contains(a membus.Addr) bool {
	return a >= r.base && a < r.base+membus.Addr(r.cap)*membus.BlockSize
}

// logicalAt maps a physical block address to the most recent logical index
// at or below limit-1 that aliases it.
func (r *cniRing) logicalAt(a membus.Addr, limit int64) int64 {
	idx := int64(a-r.base) / membus.BlockSize
	last := limit - 1
	return last - ((last-idx)%r.cap+r.cap)%r.cap
}

// installRings lays out c's rings for buffering b and builds the device
// memories that back them, before the engine attaches to the bus as a
// snooper.
func (c *coherent) installRings(b Buffering) {
	cfg := &c.env.Cfg
	c.sendPtr = QmPtrBase
	c.recvPtr = QmPtrBase + membus.BlockSize
	if b == NIRing {
		c.sendRing = cniRing{base: NIQSendBase, cap: int64(cfg.CNIQueueBlocks)}
		c.recvRing = cniRing{base: NIQRecvBase, cap: int64(cfg.CNIQueueBlocks)}
		c.depositKind, c.depositMode = membus.Invalidate, "ni-dram"
		// A fetched block's store into NI DRAM lands in the device's
		// write buffer and charges nothing; only a prefetch occupies it.
		c.prefetchStore = mainmem.New("cni-qmem", cfg.NIDRAM, c.env.Eng)
		c.env.Bus.MapRange(NIQSendBase, DeviceLimit, c.prefetchStore)
		return
	}
	c.sendRing = cniRing{base: QmSendBase, cap: int64(cfg.QmSendQueueBlocks)}
	c.recvRing = cniRing{base: QmRecvBase, cap: int64(cfg.QmQueueBlocks)}
	c.depositKind, c.depositMode = membus.WriteInvalidate, "memory"
	if b == NICachedRing {
		c.cache = &niCache{
			sendSRAM: mainmem.New("cni-send-cache", cfg.NISRAM, c.env.Eng),
			recvSRAM: mainmem.New("cni-recv-cache", cfg.NISRAM, c.env.Eng),
			blocks:   cfg.CNICacheBlocks,
		}
		// The single-ported SRAM charges every store, fetched or
		// prefetched.
		c.fetchStore, c.prefetchStore = c.cache.sendSRAM, c.cache.sendSRAM
	}
}

// deposit takes one step of moving the receive engine's message, which
// holds its ring entry, into the receive ring, paying the buffering's bus
// idiom, and reports whether the engine must now wait. The step that
// finishes sets the entry's inCache, whether its blocks are resident in
// the NI cache, and leaves recvDone.
func (c *coherent) deposit() (wait bool) {
	e := &c.recvCur
	k := c.cache
	switch c.recvAt {
	case recvDeposit:
		switch {
		case k == nil:
			c.recvKind, c.recvAt = c.depositKind, recvWrite
		case c.env.Cfg.DisableCNIBypass:
			c.recvAt = recvRoom
		default:
			c.recvAt = recvPlace
		}
	case recvRoom:
		// Ablation: no bypass — hold the flow-control buffer until the
		// receive cache has room (backpressure instead of steering
		// through memory).
		if k.room(e.nb) {
			c.recvAt = recvPlace
		} else if c.reclaim(); !k.room(e.nb) {
			c.recvWait = waitConsume
			return true
		}
	case recvPlace:
		if k.room(e.nb) {
			c.recvAt = recvCache
			break
		}
		// Receive cache full of pending messages: bypass to main memory
		// so the head stays readable via fast cache-to-cache transfers.
		// The forced head update (a coherent read of the head-pointer
		// block, supplied from the processor cache) is the moment the NI
		// learns which cached messages are dead and can reclaim their
		// blocks without writeback.
		c.env.Stats.NIBypasses++
		c.recvAt = recvBypassed
		c.env.Bus.Issue(c, membus.GetS, c.recvPtr, 0, cniRecvDone, c)
		return true
	case recvCache:
		// Write into the NI receive cache; invalidate stale processor
		// copies with address-only transactions.
		if c.recvBlk < e.nb {
			k.recvSRAM.Claim() // posted SRAM write
			c.recvAt = recvCached
			c.env.Bus.Issue(c, membus.Invalidate, c.recvRing.addr(e.start+c.recvBlk), 0, cniRecvDone, c)
			return true
		}
		k.filling = 0
		if tr := c.env.Trace; tr != nil {
			tr("buffer deposit mode=ni-cache blocks=%d live=%d", e.nb, k.live.len())
		}
		e.inCache, c.recvAt = true, recvDone
	case recvCached:
		k.live.push(e.start + c.recvBlk)
		k.filling++
		c.recvBlk++
		c.recvAt = recvCache
	case recvBypassed:
		c.reclaim()
		c.recvKind, c.recvAt = membus.WriteInvalidate, recvWrite
	case recvWrite:
		// One recvKind transaction per receive-ring block of the message.
		if c.recvBlk < e.nb {
			c.env.Bus.Issue(c, c.recvKind, c.recvRing.addr(e.start+c.recvBlk), 0, cniRecvDone, c)
			c.recvBlk++
			return true
		}
		if tr := c.env.Trace; tr != nil {
			if k != nil {
				tr("buffer deposit mode=bypass blocks=%d live=%d", e.nb, k.live.len())
			} else {
				tr("buffer deposit mode=%s blocks=%d", c.depositMode, e.nb)
			}
		}
		c.recvAt = recvDone
	}
	return false
}

// niCache is CNI_32Q_m's pair of NI SRAM caches over the memory-homed
// rings. Receive-cache overflow bypasses straight to memory so the queue
// head stays cache-resident; consumed ("dead") messages are freed without
// writeback; the forced head update on a bypass keeps the dead set known.
type niCache struct {
	sendSRAM, recvSRAM *mainmem.Memory
	// live holds the logical receive blocks resident in the cache, in
	// ascending order: deposits append increasing indexes, so the dead
	// blocks (below the ring head) are always a prefix.
	live queue[int64]
	// filling counts the blocks of the deposit in progress that live
	// already holds. The deposit waits on the bus between blocks, so a
	// consume can reclaim meanwhile; the count it traces excludes them.
	filling int
	// blocks is the cache's capacity (Config.CNICacheBlocks).
	blocks int
}

// room reports whether the receive cache has room for nb more blocks.
func (k *niCache) room(nb int64) bool {
	return k.live.len()+int(nb) <= k.blocks
}

// reclaim frees receive-cache blocks below the (just learned) head — dead-
// message suppression: the blocks leave without a writeback because the
// home copy no longer matters. Under the lazy-pointer optimization this
// happens only when a flush forces a head update, which is why an
// overloaded receive cache stays full of dead messages and keeps bypassing.
func (c *coherent) reclaim() {
	k := c.cache
	dead := 0
	for _, li := range k.live.items() {
		if li >= c.recvRing.head {
			break
		}
		dead++
	}
	if dead > 0 {
		if tr := c.env.Trace; tr != nil {
			tr("buffer reclaim dead=%d live=%d", dead, k.live.len()-k.filling)
		}
	}
	for ; dead > 0; dead-- {
		li := k.live.pop()
		if c.env.Cfg.DisableDeadSuppress {
			// Ablation: without dead-message suppression each reclaimed
			// block is written back to its main-memory home.
			c.env.Bus.Issue(c, membus.Writeback, c.recvRing.addr(li), 0, nil, nil)
		}
	}
}

// cacheSupply answers a coherent read: the NI cache supplies a
// receive-ring block it holds, and the zero reply leaves any other block
// to its home.
func (c *coherent) cacheSupply(a membus.Addr) membus.SnoopReply {
	if !c.recvRing.contains(a) {
		return membus.SnoopReply{}
	}
	li := c.recvRing.logicalAt(a, c.recvRing.tail)
	if _, live := slices.BinarySearch(c.cache.live.items(), li); !live {
		return membus.SnoopReply{}
	}
	// NI-cache-to-processor-cache transfer: the NI keeps an owned copy
	// until the message dies.
	return membus.SnoopReply{Owner: true, Shared: true, SupplyLatency: c.cache.recvSRAM.Claim()}
}
