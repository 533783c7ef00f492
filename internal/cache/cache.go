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

// pageLines is the number of lines in one page of the tag store: 512 B.
const pageLines = 64

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

	// pages is the tag store, pageLines lines a page. The directory is
	// allocated on the cache's first install and a page when the first
	// line in it is installed; until then all its lines read as Invalid.
	// A large direct-mapped cache on a many-node machine touches few of
	// its pages, and many caches install nothing, so memory follows the
	// lines a run uses.
	pages []*[pageLines]line

	// Hits and Misses count processor accesses.
	Hits, Misses int64
	// Writebacks counts dirty-victim writebacks.
	Writebacks int64

	// op is the processor's access in flight (Start).
	op Op

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
	c := &Cache{name: name, eng: e, bus: b, cfg: cfg, node: node, mask: n - 1}
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
	if p := i / pageLines; p < len(c.pages) {
		if pg := c.pages[p]; pg != nil {
			return &pg[i%pageLines]
		}
	}
	return nil
}

// install returns the line block maps to, allocating the page directory on
// the cache's first install and the line's page on the page's first.
// Only the miss path calls it.
func (c *Cache) install(block membus.Addr) *line {
	if c.pages == nil {
		c.pages = make([]*[pageLines]line, (c.mask+pageLines)/pageLines)
	}
	pg := &c.pages[c.index(block)/pageLines]
	if *pg == nil {
		*pg = new([pageLines]line)
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

// evict starts evicting the victim line l. A dirty victim is written
// back, with done(recv, flags) run at the writeback's completion, and
// evict reports true: the caller invalidates l then. A clean victim is
// invalidated at once.
func (c *Cache) evict(l *line, done sim.Handler, recv any) bool {
	if l.state().Dirty() {
		c.Writebacks++
		c.bus.Issue(c, membus.Writeback, l.block(), 0, done, recv)
		return true
	}
	l.set(l.block(), Invalid)
	return false
}

// Op is one processor load or store of the bytes [a, a+n), in flight
// through the cache one block at a time. It never blocks: Step does what
// the access does at the current time and says what it waits for, and
// the processor's access train (proc.Train) schedules its continuation
// events from that. The hit, upgrade, eviction and fill logic lives here
// alone.
type Op struct {
	c     *Cache
	a     membus.Addr // the current piece's first byte
	n     int         // bytes left, the current piece's included
	write bool
	// wait is the bus transaction the op waits for, on line l; flags are
	// its snoop results (membus.DoneShared, membus.DoneFromCache).
	wait  opWait
	l     *line
	flags uint64
	// wake(wakeRecv, 0) runs at each completion the op waits for.
	wake     sim.Handler
	wakeRecv any
}

// opWait is the bus transaction an Op waits for.
type opWait int8

const (
	opNone opWait = iota
	opUpgrade
	opWriteback
	opFill
)

// Start begins a processor load of n bytes at a, or a store when write,
// and returns it; nothing happens until the first Step. The processor has
// one access in flight at a time, so the cache holds the one record.
// wake(recv, 0) runs inline at each bus completion the op waits for.
func (c *Cache) Start(a membus.Addr, n int, write bool, wake sim.Handler, recv any) *Op {
	c.op = Op{c: c, a: a, n: n, write: write, wake: wake, wakeRecv: recv}
	return &c.op
}

// opDone is the completion hook of an op's bus transaction.
//
//lint:hotpath
func opDone(recv any, flags uint64) {
	op := recv.(*Op)
	op.flags = flags
	op.wake(op.wakeRecv, 0)
}

// Step advances the op at the current time, which must be the time its
// driver would run the access: when it starts, d after a hit that
// returned d, or in the slot Unpark takes after the wake hook ran
// (AfterEvent(0) from it). A line's new state is set in that slot, where a
// process resumed from the transaction would set it. Step returns busy
// when a bus transaction is pending; otherwise a hit's latency d > 0 that
// must pass before the next Step, or d == 0 once the op is done.
//
//lint:hotpath
func (op *Op) Step() (d sim.Time, busy bool) {
	c := op.c
	for {
		switch op.wait {
		case opUpgrade:
			op.wait = opNone
			// Re-check: a racing snoop may have invalidated us while
			// upgrading. If so, fall through to a full miss.
			if block := membus.BlockOf(op.a); op.l.holds(block) {
				op.l.set(block, Modified)
				op.advance()
				continue
			}
			op.miss(op.l)
			return 0, true
		case opWriteback:
			op.l.set(op.l.block(), Invalid)
			op.fill()
			return 0, true
		case opFill:
			op.wait = opNone
			block := membus.BlockOf(op.a)
			switch {
			case op.write:
				op.l.set(block, Modified)
			case op.flags&(membus.DoneShared|membus.DoneFromCache) != 0:
				op.l.set(block, Shared)
			default:
				op.l.set(block, Exclusive)
			}
			op.advance()
			continue
		}
		if op.n == 0 {
			return 0, false
		}
		block := membus.BlockOf(op.a)
		l := c.slot(block)
		if !l.holds(block) {
			op.miss(l)
			return 0, true
		}
		c.Hits++
		if op.write && l.state() != Modified && l.state() != Exclusive {
			// Shared or Owned: upgrade in place.
			op.l, op.wait = l, opUpgrade
			c.bus.Issue(c, membus.Upgrade, block, 0, opDone, op)
			return 0, true
		}
		if op.write {
			l.set(block, Modified)
		}
		op.advance()
		if d := c.cfg.HitLatency; d > 0 {
			return d, false
		}
	}
}

// advance moves the op past its current piece: the rest of the block, or
// of the op.
func (op *Op) advance() {
	sz := min(op.n, int(membus.BlockOf(op.a)+membus.BlockSize-op.a))
	op.a += membus.Addr(sz)
	op.n -= sz
}

// miss starts the current piece's fill into l, the line its block maps
// to (nil if its page was never installed), after writing back a dirty
// victim.
func (op *Op) miss(l *line) {
	c := op.c
	c.Misses++
	block := membus.BlockOf(op.a)
	if l == nil {
		l = c.install(block) //lint:allow noalloc one directory per cache and at most nlines/64 pages, each allocated once on its first install; amortized like the event pool miss
	} else if l.state().Valid() && l.block() != block && c.evict(l, opDone, op) {
		op.l, op.wait = l, opWriteback
		return
	}
	op.l = l
	op.fill()
}

// fill issues the current piece's block fill into op.l.
func (op *Op) fill() {
	kind := membus.GetS
	if op.write {
		kind = membus.GetX
	}
	op.wait = opFill
	op.c.bus.Issue(op.c, kind, membus.BlockOf(op.a), 0, opDone, op)
}
