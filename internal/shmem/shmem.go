// Package shmem implements a Tempest-style, user-level, invalidation-based
// shared-memory protocol over the active-message layer — the substrate the
// paper's appbt and barnes run on ("Tempest's default invalidation-based
// shared memory protocol", §5.2).
//
// The protocol is home-based and fine-grain: a global block address space
// is distributed round-robin across the nodes; each home keeps a directory
// entry per block (sharers, owner, transient state) and serializes racing
// requests. Protocol messages use the paper's observed sizes: 12-byte
// requests/invalidations/acks, 16-byte upgrade grants, and data replies of
// a configurable grain (the applications in Table 4 show 32-byte replies
// for appbt's word-grain data and 140-byte replies for barnes's
// block-grain cells).
//
// Handlers never block: multi-step transactions (recalls, invalidation
// rounds) are completed by later handler invocations, with waiters parked
// in the requesting processor's poll loop. All protocol data also moves
// through the local cache model via per-block shadow addresses, so the
// timing includes the processor-side cache behavior of the protocol.
package shmem

import (
	"fmt"
	"sort"

	"nisim/internal/machine"
	"nisim/internal/membus"
	"nisim/internal/msglayer"
	"nisim/internal/proc"
	"nisim/internal/stats"
)

// Block states at a caching node.
type state int8

const (
	invalid state = iota
	shared
	exclusive
)

// Handler ids used by the protocol (one contiguous reserved band).
const (
	hReadReq = 100 + iota
	hWriteReq
	hData      // data reply (read)
	hDataExcl  // data reply (write/exclusive)
	hUpgrade   // exclusive grant without data (requester already had S)
	hInval     // invalidate a sharer
	hInvalAck  // sharer's acknowledgment to home
	hRecall    // recall modified data from the owner
	hWriteBack // owner's data back to home
)

// Config sets the protocol's data grain.
type Config struct {
	// DataBytes is the payload of a data reply or writeback. 24 produces
	// the 32-byte messages of appbt's word-grain data; 132 the 140-byte
	// messages of barnes's block-grain cells.
	DataBytes int
	// CtlBytes is the payload of requests, invalidations and acks
	// (4 ⇒ 12-byte messages).
	CtlBytes int
	// UpgradeBytes is the payload of an exclusive grant without data
	// (8 ⇒ 16-byte messages).
	UpgradeBytes int
	// ShadowBlocks is the size of the per-node shadow region the cached
	// copies live in (timing only).
	ShadowBlocks int
	// ShadowBase is the local physical base address of the shadow region.
	ShadowBase membus.Addr
}

// DefaultConfig returns a block-grain (140-byte data message) protocol.
func DefaultConfig() Config {
	return Config{
		DataBytes:    132,
		CtlBytes:     4,
		UpgradeBytes: 8,
		ShadowBlocks: 4096,
		ShadowBase:   machine.AppBase + 0x20_0000,
	}
}

// directory is the home-side state of one block.
type directory struct {
	sharers map[int]bool
	owner   int // -1 when no exclusive owner
	// busy marks an in-flight transaction; requests arriving meanwhile
	// queue below and are served strictly in arrival order.
	busy    bool
	pending []pendingReq
	// acksLeft counts outstanding invalidation acks for the current
	// transaction.
	acksLeft int
	// data holds the current value when real payload bytes are in use.
	data []byte
}

type pendingReq struct {
	node  int
	write bool
}

// Protocol is one shared run's protocol instance; create it once and
// Register every node before machine.Run starts the programs.
type Protocol struct {
	cfg   Config
	nodes []*endpoint
}

// endpoint is the per-node protocol state.
type endpoint struct {
	p    *Protocol
	n    *machine.Node
	dir  map[int64]*directory // blocks this node is home for
	st   map[int64]state      // local cache state per global block
	wait map[int64]bool       // outstanding miss per block
	data map[int64][]byte     // local copy when real bytes are in use

	// The processor's shadow accesses (shadowAccess).
	tr  proc.Train
	one proc.OneStep
}

// New creates a protocol with the given data grain.
func New(cfg Config) *Protocol {
	if cfg.DataBytes <= 0 || cfg.CtlBytes <= 0 || cfg.ShadowBlocks <= 0 {
		panic("shmem: invalid config")
	}
	return &Protocol{cfg: cfg}
}

// HomeOf returns the home node of a global block.
func (p *Protocol) HomeOf(gblock int64) int {
	return int(gblock % int64(len(p.nodes)))
}

// Reserve pre-sizes the protocol's node table for n nodes. Call it in
// serial context (when building the program, before machine.Run) on a
// partitioned machine: Register then performs only a disjoint per-node
// element write, safe even when every node registers concurrently from its
// own shard at time zero. Serial machines may skip it; Register grows the
// table lazily.
func (p *Protocol) Reserve(n int) {
	for len(p.nodes) < n {
		p.nodes = append(p.nodes, nil)
	}
}

// Register wires node n into the protocol and installs its handlers. Call
// once per node, inside the node's program, before any Access.
func (p *Protocol) Register(n *machine.Node) *Node {
	ep := &endpoint{
		p:    p,
		n:    n,
		dir:  make(map[int64]*directory),
		st:   make(map[int64]state),
		wait: make(map[int64]bool),
		data: make(map[int64][]byte),
	}
	for len(p.nodes) <= n.ID {
		p.nodes = append(p.nodes, nil)
	}
	p.nodes[n.ID] = ep
	ep.install()
	return &Node{ep: ep}
}

// Node is the per-node face of the protocol.
type Node struct{ ep *endpoint }

// Read performs a shared-memory read of the block containing gaddr,
// blocking the simulated processor until the data is locally readable.
func (sn *Node) Read(gaddr int64) { sn.ep.access(gaddr/membus.BlockSize, false) }

// Write performs a shared-memory write to the block containing gaddr,
// blocking until exclusive ownership is held locally.
func (sn *Node) Write(gaddr int64) { sn.ep.access(gaddr/membus.BlockSize, true) }

// WriteBytes writes real payload bytes into the block (for verification);
// the timing is Write's.
func (sn *Node) WriteBytes(gaddr int64, b []byte) {
	g := gaddr / membus.BlockSize
	sn.ep.access(g, true)
	cp := make([]byte, len(b))
	copy(cp, b)
	sn.ep.data[g] = cp
}

// ReadBytes reads the block's current payload bytes (timing of Read).
func (sn *Node) ReadBytes(gaddr int64) []byte {
	g := gaddr / membus.BlockSize
	sn.ep.access(g, false)
	return sn.ep.data[g]
}

// State reports the local coherence state name for tests.
func (sn *Node) State(gaddr int64) string {
	switch sn.ep.st[gaddr/membus.BlockSize] {
	case shared:
		return "S"
	case exclusive:
		return "M"
	default:
		return "I"
	}
}

// shadow returns the local cacheable address standing in for gblock.
func (ep *endpoint) shadow(gblock int64) membus.Addr {
	return ep.p.cfg.ShadowBase + membus.Addr(gblock%int64(ep.p.cfg.ShadowBlocks))*membus.BlockSize
}

// access is the processor-side protocol entry: hit fast, or start a miss
// transaction and poll until the reply installs the block.
func (ep *endpoint) access(gblock int64, write bool) {
	st := ep.st[gblock]
	if st == exclusive || (st == shared && !write) {
		// Hit: a cached access to the shadow block.
		ep.shadowAccess(gblock, write)
		return
	}
	if ep.wait[gblock] {
		panic(fmt.Sprintf("shmem: node %d has concurrent accesses to block %d", ep.n.ID, gblock))
	}
	home := ep.p.HomeOf(gblock)
	ep.wait[gblock] = true
	if home == ep.n.ID {
		// Home-local miss: serve through the directory without messages.
		ep.homeLocal(gblock, write)
	} else {
		h := hReadReq
		if write {
			h = hWriteReq
		}
		ep.n.EP.Send(home, h, ep.p.cfg.CtlBytes, uint64(gblock))
	}
	ep.n.EP.WaitUntil(func() bool { return !ep.wait[gblock] })
	// Install into the local cache model.
	ep.shadowAccess(gblock, write)
}

// shadowAccess loads 8 bytes of gblock's shadow block through the
// processor cache, or stores them when write, as a one-step access train
// charged to Compute, as the rest of the access is.
func (ep *endpoint) shadowAccess(gblock int64, write bool) {
	ep.tr.Run(ep.n.Proc, stats.Compute, ep.one.Set(proc.CachedStep(write, ep.shadow(gblock), 8)))
}

func (ep *endpoint) entry(gblock int64) *directory {
	d := ep.dir[gblock]
	if d == nil {
		d = &directory{sharers: make(map[int]bool), owner: -1}
		ep.dir[gblock] = d
	}
	return d
}

// install registers the nine protocol handlers on the node.
func (ep *endpoint) install() {
	reg := ep.n.EP.Register
	reg(hReadReq, func(_ *msglayer.Endpoint, m *msglayer.Message) {
		ep.homeRequest(int64(m.Arg), m.Src, false)
	})
	reg(hWriteReq, func(_ *msglayer.Endpoint, m *msglayer.Message) {
		ep.homeRequest(int64(m.Arg), m.Src, true)
	})
	reg(hData, func(_ *msglayer.Endpoint, m *msglayer.Message) {
		g := int64(m.Arg)
		ep.st[g] = shared
		if m.Payload != nil {
			ep.data[g] = append([]byte(nil), m.Payload...)
		}
		delete(ep.wait, g)
	})
	reg(hDataExcl, func(_ *msglayer.Endpoint, m *msglayer.Message) {
		g := int64(m.Arg)
		ep.st[g] = exclusive
		if m.Payload != nil {
			ep.data[g] = append([]byte(nil), m.Payload...)
		}
		delete(ep.wait, g)
	})
	reg(hUpgrade, func(_ *msglayer.Endpoint, m *msglayer.Message) {
		g := int64(m.Arg)
		ep.st[g] = exclusive
		delete(ep.wait, g)
	})
	reg(hInval, func(e *msglayer.Endpoint, m *msglayer.Message) {
		g := int64(m.Arg)
		ep.st[g] = invalid
		e.Send(m.Src, hInvalAck, ep.p.cfg.CtlBytes, m.Arg)
	})
	reg(hInvalAck, func(_ *msglayer.Endpoint, m *msglayer.Message) {
		ep.homeAck(int64(m.Arg))
	})
	reg(hRecall, func(e *msglayer.Endpoint, m *msglayer.Message) {
		g := int64(m.Arg)
		ep.st[g] = invalid
		if b, ok := ep.data[g]; ok {
			e.SendBytes(m.Src, hWriteBack, b, m.Arg)
		} else {
			e.Send(m.Src, hWriteBack, ep.p.cfg.DataBytes, m.Arg)
		}
	})
	reg(hWriteBack, func(_ *msglayer.Endpoint, m *msglayer.Message) {
		ep.homeWriteBack(int64(m.Arg), m.Payload)
	})
}

// homeLocal serves the home node's own miss through its directory.
func (ep *endpoint) homeLocal(gblock int64, write bool) {
	ep.homeRequest(gblock, ep.n.ID, write)
}

// homeRequest is the directory's request entry: serve immediately when the
// block is quiescent, else queue.
func (ep *endpoint) homeRequest(gblock int64, from int, write bool) {
	d := ep.entry(gblock)
	if d.busy {
		d.pending = append(d.pending, pendingReq{node: from, write: write})
		return
	}
	ep.homeServe(gblock, d, from, write)
}

func (ep *endpoint) homeServe(gblock int64, d *directory, from int, write bool) {
	switch {
	case d.owner >= 0 && d.owner != from:
		// Modified elsewhere: recall first, reply on writeback.
		d.busy = true
		d.pending = append([]pendingReq{{node: from, write: write}}, d.pending...)
		owner := d.owner
		d.owner = -1
		ep.send(owner, hRecall, ep.p.cfg.CtlBytes, gblock)
	case write:
		// Invalidate all other sharers, then grant.
		targets := make([]int, 0, len(d.sharers))
		for s := range d.sharers {
			if s != from {
				targets = append(targets, s)
			}
		}
		// Invalidations go out in node order, not map order: the send
		// sequence schedules network events and must be reproducible.
		sort.Ints(targets)
		if len(targets) > 0 {
			d.busy = true
			d.pending = append([]pendingReq{{node: from, write: true}}, d.pending...)
			d.acksLeft = len(targets)
			for _, s := range targets {
				delete(d.sharers, s)
				ep.send(s, hInval, ep.p.cfg.CtlBytes, gblock)
			}
			return
		}
		ep.grantWrite(gblock, d, from)
	default:
		d.sharers[from] = true
		if from == ep.n.ID {
			ep.localInstall(gblock, shared)
		} else {
			ep.sendData(from, hData, gblock, d)
		}
	}
}

// homeAck collects an invalidation ack; the last one completes the pending
// write transaction.
func (ep *endpoint) homeAck(gblock int64) {
	d := ep.entry(gblock)
	d.acksLeft--
	if d.acksLeft > 0 {
		return
	}
	ep.homeComplete(gblock, d)
}

// homeWriteBack absorbs recalled data and completes the transaction.
func (ep *endpoint) homeWriteBack(gblock int64, payload []byte) {
	d := ep.entry(gblock)
	if payload != nil {
		d.data = append([]byte(nil), payload...)
	}
	ep.homeComplete(gblock, d)
}

// homeComplete finishes the current transaction and drains queued requests
// that can proceed without further remote work.
func (ep *endpoint) homeComplete(gblock int64, d *directory) {
	d.busy = false
	for !d.busy && len(d.pending) > 0 {
		req := d.pending[0]
		d.pending = d.pending[1:]
		ep.homeServe(gblock, d, req.node, req.write)
	}
}

func (ep *endpoint) grantWrite(gblock int64, d *directory, to int) {
	hadShared := d.sharers[to]
	d.sharers = map[int]bool{}
	d.owner = to
	if to == ep.n.ID {
		ep.localInstall(gblock, exclusive)
		return
	}
	if hadShared {
		ep.send(to, hUpgrade, ep.p.cfg.UpgradeBytes, gblock)
	} else {
		ep.sendData(to, hDataExcl, gblock, d)
	}
}

func (ep *endpoint) localInstall(gblock int64, s state) {
	ep.st[gblock] = s
	if d := ep.dir[gblock]; d != nil && d.data != nil {
		ep.data[gblock] = append([]byte(nil), d.data...)
	}
	delete(ep.wait, gblock)
}

func (ep *endpoint) send(to, handler, payload int, gblock int64) {
	if to == ep.n.ID {
		// Home recalling from itself or invalidating itself: apply locally.
		switch handler {
		case hInval:
			ep.st[gblock] = invalid
			ep.homeAck(gblock)
		case hRecall:
			ep.st[gblock] = invalid
			ep.homeWriteBack(gblock, ep.data[gblock])
		}
		return
	}
	ep.n.EP.Send(to, handler, payload, uint64(gblock))
}

func (ep *endpoint) sendData(to, handler int, gblock int64, d *directory) {
	if d.data != nil {
		ep.n.EP.SendBytes(to, handler, d.data, uint64(gblock))
		return
	}
	ep.n.EP.Send(to, handler, ep.p.cfg.DataBytes, uint64(gblock))
}

// SeedBytes initializes a block's home copy (call on the home node before
// the computation races begin).
func (sn *Node) SeedBytes(gaddr int64, b []byte) {
	g := gaddr / membus.BlockSize
	home := sn.ep.p.HomeOf(g)
	if home != sn.ep.n.ID {
		panic(fmt.Sprintf("shmem: SeedBytes on node %d for block homed at %d", sn.ep.n.ID, home))
	}
	d := sn.ep.entry(g)
	d.data = append([]byte(nil), b...)
}
