package nic

import (
	"sort"

	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/sim"
)

// ringPolicy is the buffering-policy seam of the coherent engine: each
// implementation owns where the queue rings are homed, which device
// memories back them, what bus idiom a deposited block pays, how occupancy
// is metered, and how dead storage is reclaimed (the buffering parameters
// of Table 2). The coherent engine calls these hooks at fixed points of its
// generic queue machinery; a policy that has nothing to do at a hook leaves
// it empty.
type ringPolicy interface {
	// install sets the ring geometry and pointer addresses on c and maps
	// any policy-owned device memories onto the node's bus. Called once,
	// during construction.
	install(c *coherent)
	// prefetches reports whether this policy's NI stores fetched send
	// blocks locally, making compose-triggered prefetch worthwhile.
	prefetches() bool
	// fetchStored charges the local store of a block the send engine just
	// fetched.
	fetchStored()
	// prefetchStored charges the local store of a prefetched block.
	prefetchStored()
	// deposit moves one accepted message (nb blocks at logical start) into
	// the receive queue, paying the policy's bus idiom, and reports whether
	// the blocks are resident in an NI cache.
	deposit(p *sim.Process, start, nb int64) bool
	// reclaim frees policy storage whose messages are known dead (below
	// the receive ring head).
	reclaim()
	// snoopSupply lets the policy supply a coherent read from NI storage;
	// ok reports whether it did.
	snoopSupply(a membus.Addr) (reply membus.SnoopReply, ok bool)
	// recordConsume attributes one consumed message's blocks to the
	// policy's occupancy counters (NI cache hits/misses).
	recordConsume(inCache bool, nb int64)
}

// newRingPolicy builds the policy for a ring-buffered spec.
func newRingPolicy(b Buffering) ringPolicy {
	switch b {
	case MemoryRing:
		return &memRing{}
	case NIRing:
		return &niRing{}
	case NICachedRing:
		return &cachedRing{}
	default:
		panic("nic: " + b.String() + " is not a ring buffering policy")
	}
}

// memRing is the CNI_0Q_m (StarT-JR-like) policy: queues homed in main
// memory, nothing cached on the NI. Incoming messages are deposited with
// coherent write-invalidate block transfers; the processor reads them from
// DRAM. Plentiful buffering, no processor involvement, every block through
// the memory system.
type memRing struct {
	c *coherent
}

func (r *memRing) install(c *coherent) {
	r.c = c
	c.sendRing = cniRing{base: QmSendBase, cap: int64(c.env.Cfg.QmSendQueueBlocks)}
	c.recvRing = cniRing{base: QmRecvBase, cap: int64(c.env.Cfg.QmQueueBlocks)}
	c.sendPtr = QmPtrBase
	c.recvPtr = QmPtrBase + membus.BlockSize
}

func (r *memRing) prefetches() bool { return false }
func (r *memRing) fetchStored()     {}
func (r *memRing) prefetchStored()  {}

func (r *memRing) deposit(p *sim.Process, start, nb int64) bool {
	c := r.c
	// Coherent write-invalidate block transfers into main memory.
	for i := int64(0); i < nb; i++ {
		c.env.Bus.AccessFrom(p, c, membus.WriteInvalidate, c.recvRing.addr(start+i), 0)
	}
	if tr := c.env.Trace; tr != nil {
		tr("buffer deposit mode=memory blocks=%d", nb)
	}
	return false
}

func (r *memRing) reclaim() {}
func (r *memRing) snoopSupply(a membus.Addr) (membus.SnoopReply, bool) {
	return membus.SnoopReply{}, false
}
func (r *memRing) recordConsume(inCache bool, nb int64) {}

// niRing is the CNI_512Q policy: 512-block queues homed in NI DRAM.
// Incoming messages are written locally (one address-only invalidate per
// block on the bus); the processor reads them straight from the NI.
type niRing struct {
	c    *coherent
	qmem *mainmem.Memory // NI-homed queue storage
}

func (r *niRing) install(c *coherent) {
	r.c = c
	c.sendRing = cniRing{base: NIQSendBase, cap: int64(c.env.Cfg.CNIQueueBlocks)}
	c.recvRing = cniRing{base: NIQRecvBase, cap: int64(c.env.Cfg.CNIQueueBlocks)}
	c.sendPtr = QmPtrBase
	c.recvPtr = QmPtrBase + membus.BlockSize
	r.qmem = mainmem.New("cni-qmem", c.env.Cfg.NIDRAM, c.env.Eng)
	c.env.Bus.MapRange(NIQSendBase, DeviceLimit, r.qmem)
}

func (r *niRing) prefetches() bool { return true }
func (r *niRing) fetchStored()     {}
func (r *niRing) prefetchStored()  { r.qmem.Claim() }

func (r *niRing) deposit(p *sim.Process, start, nb int64) bool {
	c := r.c
	// Local write into NI DRAM (buffered, read-bypassed) plus an
	// address-only invalidate per block.
	for i := int64(0); i < nb; i++ {
		c.env.Bus.AccessFrom(p, c, membus.Invalidate, c.recvRing.addr(start+i), 0)
	}
	if tr := c.env.Trace; tr != nil {
		tr("buffer deposit mode=ni-dram blocks=%d", nb)
	}
	return false
}

func (r *niRing) reclaim() {}
func (r *niRing) snoopSupply(a membus.Addr) (membus.SnoopReply, bool) {
	return membus.SnoopReply{}, false
}
func (r *niRing) recordConsume(inCache bool, nb int64) {}

// cachedRing is the CNI_32Q_m policy: queues homed in main memory but
// cached in two 32-block NI SRAM caches. Receive-cache overflow bypasses
// straight to memory so the queue head stays cache-resident; consumed
// ("dead") messages are freed without writeback; the forced head update on
// flush keeps the dead-set known.
type cachedRing struct {
	c                  *coherent
	sendSRAM, recvSRAM *mainmem.Memory
	liveRecv           map[int64]bool // logical recv blocks resident in the NI cache
	cacheLiveR         int64          // NI's view of occupied receive-cache blocks
}

func (r *cachedRing) install(c *coherent) {
	r.c = c
	c.sendRing = cniRing{base: QmSendBase, cap: int64(c.env.Cfg.QmSendQueueBlocks)}
	c.recvRing = cniRing{base: QmRecvBase, cap: int64(c.env.Cfg.QmQueueBlocks)}
	c.sendPtr = QmPtrBase
	c.recvPtr = QmPtrBase + membus.BlockSize
	r.sendSRAM = mainmem.New("cni-send-cache", c.env.Cfg.NISRAM, c.env.Eng)
	r.recvSRAM = mainmem.New("cni-recv-cache", c.env.Cfg.NISRAM, c.env.Eng)
	r.liveRecv = make(map[int64]bool)
}

func (r *cachedRing) prefetches() bool { return true }

func (r *cachedRing) fetchStored()    { r.sendSRAM.Claim() }
func (r *cachedRing) prefetchStored() { r.sendSRAM.Claim() }

func (r *cachedRing) deposit(p *sim.Process, start, nb int64) bool {
	c := r.c
	if c.env.Cfg.DisableCNIBypass {
		// Ablation: no bypass — hold the flow-control buffer until the
		// receive cache has room (backpressure instead of steering
		// through memory).
		for r.cacheLiveR+nb > int64(c.env.Cfg.CNICacheBlocks) {
			r.reclaim()
			if r.cacheLiveR+nb <= int64(c.env.Cfg.CNICacheBlocks) {
				break
			}
			c.consumeCond.Wait(p)
		}
	}
	if r.cacheLiveR+nb <= int64(c.env.Cfg.CNICacheBlocks) {
		// Write into the NI receive cache; invalidate stale processor
		// copies with address-only transactions.
		for i := int64(0); i < nb; i++ {
			r.recvSRAM.Claim() // posted SRAM write
			c.env.Bus.AccessFrom(p, c, membus.Invalidate, c.recvRing.addr(start+i), 0)
			r.liveRecv[start+i] = true
		}
		r.cacheLiveR += nb
		if tr := c.env.Trace; tr != nil {
			tr("buffer deposit mode=ni-cache blocks=%d live=%d", nb, r.cacheLiveR)
		}
		return true
	}
	// Receive cache full of pending messages: bypass to main memory so the
	// head stays readable via fast cache-to-cache transfers. The forced
	// head update (a coherent read of the head-pointer block, supplied from
	// the processor cache) is the moment the NI learns which cached
	// messages are dead and can reclaim their blocks without writeback.
	c.env.Stats.NIBypasses++
	c.env.Bus.AccessFrom(p, c, membus.GetS, c.recvPtr, 0)
	r.reclaim()
	for i := int64(0); i < nb; i++ {
		c.env.Bus.AccessFrom(p, c, membus.WriteInvalidate, c.recvRing.addr(start+i), 0)
	}
	if tr := c.env.Trace; tr != nil {
		tr("buffer deposit mode=bypass blocks=%d live=%d", nb, r.cacheLiveR)
	}
	return false
}

// reclaim frees receive-cache blocks below the (just learned) head — dead-
// message suppression: the blocks leave without a writeback because the
// home copy no longer matters. Under the lazy-pointer optimization this
// happens only when a flush forces a head update, which is why an
// overloaded receive cache stays full of dead messages and keeps bypassing.
func (r *cachedRing) reclaim() {
	c := r.c
	// Collect and sort the dead blocks before acting: under the
	// DisableDeadSuppress ablation each one issues a bus writeback, and
	// map-iteration order must not pick the bus schedule.
	dead := make([]int64, 0, len(r.liveRecv))
	for li := range r.liveRecv {
		if li < c.recvRing.head {
			dead = append(dead, li)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	if len(dead) > 0 {
		if tr := c.env.Trace; tr != nil {
			tr("buffer reclaim dead=%d live=%d", len(dead), r.cacheLiveR)
		}
	}
	for _, li := range dead {
		delete(r.liveRecv, li)
		r.cacheLiveR--
		if c.env.Cfg.DisableDeadSuppress {
			// Ablation: without dead-message suppression each reclaimed
			// block is written back to its main-memory home.
			c.env.Bus.Issue(c, membus.Writeback, c.recvRing.addr(li), 0, nil, nil)
		}
	}
}

func (r *cachedRing) snoopSupply(a membus.Addr) (membus.SnoopReply, bool) {
	c := r.c
	if !c.recvRing.contains(a) {
		return membus.SnoopReply{}, false
	}
	li := c.recvRing.logicalAt(a, c.recvRing.tail)
	if !r.liveRecv[li] {
		return membus.SnoopReply{}, false
	}
	// NI-cache-to-processor-cache transfer: the NI keeps an owned copy
	// until the message dies.
	return membus.SnoopReply{Owner: true, Shared: true, SupplyLatency: r.recvSRAM.Claim()}, true
}

func (r *cachedRing) recordConsume(inCache bool, nb int64) {
	if inCache {
		r.c.env.Stats.NICacheHits += nb
	} else {
		r.c.env.Stats.NICacheMisses += nb
	}
}
