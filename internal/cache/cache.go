// Package cache models the processor's cache: direct-mapped, write-back,
// write-allocate, 64-byte blocks, MOESI coherence over the node's snooping
// memory bus (Table 3: 1 MB, direct-mapped).
package cache

import (
	"fmt"

	"nisim/internal/membus"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// State is a MOESI coherence state.
//
//lint:enum
type State int8

// MOESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

// stateNames holds each State's one-letter name, indexed by the State.
var stateNames = [...]string{Invalid: "I", Shared: "S", Exclusive: "E", Owned: "O", Modified: "M"}

func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return "?"
	}
	return stateNames[s]
}

// Dirty reports whether the state holds data newer than the home's copy.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// Valid reports whether the state holds readable data.
func (s State) Valid() bool { return s != Invalid }

// line is one cache line packed into a word: the block address it holds,
// with its State in the low bits the BlockSize alignment leaves free.
type line uint64

const stateBits = membus.BlockSize - 1

func (l line) block() membus.Addr { return membus.Addr(l &^ stateBits) }
func (l line) state() State       { return State(l & stateBits) }

// holds reports whether l caches block in a valid state. A nil line, the
// slot of a page never installed into, holds nothing.
func (l *line) holds(block membus.Addr) bool {
	return l != nil && l.state().Valid() && l.block() == block
}

func (l *line) set(block membus.Addr, s State) { *l = line(block) | line(s) }

// pageLines is the number of lines in one page of the tag store: 4 KiB.
const pageLines = 512

// Config holds cache geometry and latencies.
type Config struct {
	SizeBytes  int      // total capacity (Table 3: 1 MB)
	HitLatency sim.Time // processor-visible hit time
	SupplyLat  sim.Time // cache-to-cache supply latency when this cache owns
}

// DefaultConfig returns the Table 3 processor cache.
func DefaultConfig() Config {
	return Config{
		SizeBytes:  1 << 20,
		HitLatency: 1 * sim.Nanosecond,
		SupplyLat:  24 * sim.Nanosecond,
	}
}

// Cache is a direct-mapped MOESI cache attached to a memory bus.
type Cache struct {
	name string
	eng  *sim.Engine
	bus  *membus.Bus
	cfg  Config
	node *stats.Node
	mask int // number of lines - 1

	// pages is the tag store, pageLines lines a page. A page is allocated
	// when the first line in it is installed; until then all its lines
	// read as Invalid. A large direct-mapped cache on a many-node machine
	// touches few of its pages, so memory follows the lines a run uses.
	pages []*[pageLines]line

	// Hits and Misses count processor accesses.
	Hits, Misses int64
	// Writebacks counts dirty-victim writebacks.
	Writebacks int64

	// OnInvalidate, if non-nil, runs whenever a snooped transaction
	// invalidates or downgrades a line this cache held. Pollers use it to
	// notice producer writes to shared locations.
	OnInvalidate func(block membus.Addr)
}

// New creates a cache on bus b. The cache registers itself as a snooper.
func New(name string, e *sim.Engine, b *membus.Bus, cfg Config, node *stats.Node) *Cache {
	n := cfg.SizeBytes / membus.BlockSize
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: size %d is not a power-of-two multiple of the block size", cfg.SizeBytes))
	}
	pages := make([]*[pageLines]line, (n+pageLines-1)/pageLines)
	c := &Cache{name: name, eng: e, bus: b, cfg: cfg, node: node, mask: n - 1, pages: pages}
	b.AttachSnooper(c)
	return c
}

// SnooperName implements membus.Snooper.
func (c *Cache) SnooperName() string { return c.name }

func (c *Cache) index(block membus.Addr) int {
	return int(block/membus.BlockSize) & c.mask
}

// slot returns the line block maps to, or nil if no line of its page has
// ever been installed.
func (c *Cache) slot(block membus.Addr) *line {
	i := c.index(block)
	pg := c.pages[i/pageLines]
	if pg == nil {
		return nil
	}
	return &pg[i%pageLines]
}

// install returns the line block maps to, allocating its page on the first
// install. Only the miss path calls it.
func (c *Cache) install(block membus.Addr) *line {
	pg := &c.pages[c.index(block)/pageLines]
	if *pg == nil {
		*pg = new([pageLines]line) //lint:allow noalloc at most nlines/512 pages per cache, each allocated once on its first install; amortized like the event pool miss
	}
	return c.slot(block)
}

// StateOf returns the coherence state of the block containing a.
func (c *Cache) StateOf(a membus.Addr) State {
	block := membus.BlockOf(a)
	if l := c.slot(block); l.holds(block) {
		return l.state()
	}
	return Invalid
}

// Snoop implements membus.Snooper: apply the MOESI transition for a
// transaction issued by another device.
func (c *Cache) Snoop(t *membus.Transaction) membus.SnoopReply {
	if t.Kind == membus.Writeback {
		return membus.SnoopReply{}
	}
	block := membus.BlockOf(t.Addr)
	l := c.slot(block)
	if !l.holds(block) {
		return membus.SnoopReply{}
	}
	switch t.Kind { //lint:allow exhaustive only kinds the bus snoops (Kind.coherent) reach Snoop; others never arrive
	case membus.GetS:
		switch l.state() {
		case Modified, Owned:
			l.set(block, Owned)
			return membus.SnoopReply{Owner: true, Shared: true, SupplyLatency: c.cfg.SupplyLat}
		case Exclusive:
			l.set(block, Shared)
			return membus.SnoopReply{Owner: true, Shared: true, SupplyLatency: c.cfg.SupplyLat}
		case Shared:
			return membus.SnoopReply{Shared: true}
		default:
			panic("cache: snoop GetS on invalid line state")
		}
	case membus.GetX, membus.Upgrade, membus.Invalidate, membus.WriteInvalidate:
		owner := l.state().Dirty() || l.state() == Exclusive
		l.set(block, Invalid)
		if c.OnInvalidate != nil {
			c.OnInvalidate(block)
		}
		if owner && t.Kind == membus.GetX {
			// Supply the dirty/exclusive data directly to the new writer.
			return membus.SnoopReply{Owner: true, SupplyLatency: c.cfg.SupplyLat}
		}
		return membus.SnoopReply{}
	}
	return membus.SnoopReply{}
}

// evict writes back the victim line for block if dirty. Blocking.
func (c *Cache) evict(p *sim.Process, l *line) {
	if l.state().Dirty() {
		c.Writebacks++
		c.bus.AccessFrom(p, c, membus.Writeback, l.block(), 0)
	}
	l.set(l.block(), Invalid)
}

// Read performs a processor load of size bytes at a, blocking p until the
// data is available. Accesses must not span a block boundary.
func (c *Cache) Read(p *sim.Process, a membus.Addr, size int) {
	c.access(p, a, size, false)
}

// Write performs a processor store of size bytes at a, blocking p until the
// store is ordered (hit or exclusive ownership obtained).
func (c *Cache) Write(p *sim.Process, a membus.Addr, size int) {
	c.access(p, a, size, true)
}

// ReadBytes performs loads covering [a, a+n), block by block.
func (c *Cache) ReadBytes(p *sim.Process, a membus.Addr, n int) {
	c.rangeAccess(p, a, n, false)
}

// WriteBytes performs stores covering [a, a+n), block by block.
func (c *Cache) WriteBytes(p *sim.Process, a membus.Addr, n int) {
	c.rangeAccess(p, a, n, true)
}

func (c *Cache) rangeAccess(p *sim.Process, a membus.Addr, n int, write bool) {
	for n > 0 {
		inBlock := int(membus.BlockOf(a) + membus.BlockSize - a)
		sz := n
		if sz > inBlock {
			sz = inBlock
		}
		c.access(p, a, sz, write)
		a += membus.Addr(sz)
		n -= sz
	}
}

func (c *Cache) access(p *sim.Process, a membus.Addr, size int, write bool) {
	block := membus.BlockOf(a)
	if membus.BlockOf(a+membus.Addr(size)-1) != block {
		panic(fmt.Sprintf("cache: access %#x size %d spans blocks", a, size))
	}
	l := c.slot(block)
	hit := l.holds(block)

	if hit && (!write || l.state() == Modified || l.state() == Exclusive) {
		c.Hits++
		if write {
			l.set(block, Modified)
		}
		p.Sleep(c.cfg.HitLatency)
		return
	}

	if hit && write {
		// Shared or Owned: upgrade in place.
		c.Hits++
		c.bus.AccessFrom(p, c, membus.Upgrade, block, 0)
		// Re-check: a racing snoop may have invalidated us while upgrading.
		if l.holds(block) {
			l.set(block, Modified)
			return
		}
		// Fall through to a full miss.
		hit = false
	}

	c.Misses++
	if l == nil {
		l = c.install(block)
	} else if l.state().Valid() && l.block() != block {
		c.evict(p, l)
	}
	kind := membus.GetS
	if write {
		kind = membus.GetX
	}
	shared, fromCache := c.bus.AccessFrom(p, c, kind, block, 0)
	switch {
	case write:
		l.set(block, Modified)
	case shared || fromCache:
		l.set(block, Shared)
	default:
		l.set(block, Exclusive)
	}
}

// Flush writes back (if dirty) and invalidates the block containing a.
func (c *Cache) Flush(p *sim.Process, a membus.Addr) {
	block := membus.BlockOf(a)
	if l := c.slot(block); l.holds(block) {
		c.evict(p, l)
	}
}
