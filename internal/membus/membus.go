// Package membus models a node's split-transaction, snooping memory bus —
// the fabric every NI in the paper attaches to. The bus carries coherent
// block transactions (MOESI GetS/GetX/Upgrade/Writeback), uncached register
// accesses, and UltraSparc-style block-buffer transfers.
//
// Timing model (Table 3: 256-bit bus at 250 MHz, so one 64-byte block moves
// in two data beats): a transaction occupies the bus for an
// arbitration+address phase, then — after the supplier's access latency,
// during which the bus is free for other transactions — for a turnaround
// plus data-beat phase. Coherence state transitions are applied atomically
// at the address phase, which is when all attached snoopers observe the
// transaction.
package membus

import (
	"fmt"

	"nisim/internal/sim"
	"nisim/internal/stats"
)

// Addr is a physical address on a node's memory bus.
type Addr uint64

// BlockSize is the coherence block size in bytes (Table 3).
const BlockSize = 64

// BlockOf returns the block-aligned address containing a.
func BlockOf(a Addr) Addr { return a &^ (BlockSize - 1) }

// Kind enumerates bus transaction types.
//
//lint:enum
type Kind int

const (
	// GetS requests a block for reading; a cache holding it in M/O/E
	// supplies it cache-to-cache, otherwise the home does.
	GetS Kind = iota
	// GetX requests a block for writing; all other copies are invalidated.
	GetX
	// Upgrade converts a Shared copy to Modified without a data transfer.
	Upgrade
	// Writeback writes a dirty block back to its home.
	Writeback
	// UncachedRead reads Size bytes from a device register, bypassing caches.
	UncachedRead
	// UncachedWrite posts Size bytes to a device register, bypassing caches.
	UncachedWrite
	// BlockRead moves a 64-byte block from a device into a processor-side
	// block buffer (UltraSparc block load). Non-coherent.
	BlockRead
	// BlockWrite moves a 64-byte block from a processor-side block buffer to
	// a device (UltraSparc block store). Non-coherent.
	BlockWrite
	// Invalidate is an address-only coherent transaction issued by a device
	// that has produced a new version of a block it homes or caches: all
	// other cached copies are invalidated, no data moves on the bus.
	Invalidate
	// WriteInvalidate is a coherent block write to the home that also
	// invalidates all cached copies — the transaction DMA-style NIs use to
	// deposit message blocks into main memory.
	WriteInvalidate
)

// kindNames holds each Kind's name, indexed by the Kind.
var kindNames = [...]string{
	GetS: "GetS", GetX: "GetX", Upgrade: "Upgrade", Writeback: "Writeback",
	UncachedRead: "UncachedRead", UncachedWrite: "UncachedWrite",
	BlockRead: "BlockRead", BlockWrite: "BlockWrite",
	Invalidate: "Invalidate", WriteInvalidate: "WriteInvalidate",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// coherent reports whether the transaction is snooped by caches.
func (k Kind) coherent() bool {
	switch k { //lint:allow exhaustive membership predicate: kinds absent from the case list are non-coherent by definition
	case GetS, GetX, Upgrade, Writeback, Invalidate, WriteInvalidate:
		return true
	}
	return false
}

// Transaction is one bus operation, as the snoopers and the home device
// see it. Issuers do not build one: Issue and AccessFrom fill a record
// from the bus's pool, which the bus recycles once the transaction's last
// phase event has fired.
type Transaction struct {
	Kind      Kind
	Addr      Addr
	Size      int     // bytes
	Requester Snooper // the issuing snooper, excluded from snooping; nil for none
	// FromCache is set by the bus when the data was supplied cache-to-cache.
	FromCache bool
	// Shared is set by the bus when another snooper retains a copy.
	Shared bool

	// The bus threads its per-phase state through the transaction itself so
	// the phases run as shared typed-event handlers, not closures.
	bus          *Bus
	home         Target
	homeSupplies bool
	// done(doneRecv, 0), if done is non-nil, runs inline at the simulated
	// time the transaction completes: data delivered to the requester, or
	// write accepted by the bus.
	done     sim.Handler
	doneRecv any
	// refs counts the outstanding references to the record — pending phase
	// events plus a blocked issuer — so it returns to the pool only once
	// the last one that could touch it is gone (a write's home access lands
	// after its issuer has already been released).
	refs int8
}

// complete finishes the transaction by running its completion hook.
func (t *Transaction) complete() {
	if t.done != nil {
		t.done(t.doneRecv, 0)
	}
}

// Typed-event handlers for the transaction phases (see Transaction). Each
// releases its reference to the transaction after its last touch.
func txnAddressPhase(recv any, _ uint64) {
	t := recv.(*Transaction)
	t.bus.addressPhase(t)
	t.bus.release(t)
}
func txnHomeAccess(recv any, _ uint64) {
	t := recv.(*Transaction)
	t.home.HomeAccess(t)
	t.bus.release(t)
}
func txnWriteDone(recv any, _ uint64) {
	t := recv.(*Transaction)
	t.complete()
	t.bus.release(t)
}
func txnReadDone(recv any, _ uint64) {
	t := recv.(*Transaction)
	b := t.bus
	if b.node != nil {
		if t.FromCache {
			b.node.CacheToCache++
		} else if t.Kind == GetS || t.Kind == GetX {
			b.node.MemToCache++
		}
	}
	if t.homeSupplies {
		t.home.HomeAccess(t)
	}
	t.complete()
	b.release(t)
}

// SnoopReply is a snooper's response to observing a transaction's address
// phase.
type SnoopReply struct {
	// Owner indicates this snooper holds the block in an owning state and
	// will supply the data cache-to-cache.
	Owner bool
	// Shared indicates this snooper retains a (shared) copy.
	Shared bool
	// SupplyLatency is the snooper's access time to drive the data when it
	// is the owner.
	SupplyLatency sim.Time
}

// Snooper observes coherent transactions on the bus.
type Snooper interface {
	// SnooperName identifies the device in diagnostics.
	SnooperName() string
	// Snoop observes a coherent transaction issued by another device and
	// applies its state transition. It runs at the address phase.
	Snoop(t *Transaction) SnoopReply
}

// Target is a device that serves as the home for an address range: main
// memory for DRAM addresses, an NI for NI-resident queue and register
// addresses.
type Target interface {
	// TargetName identifies the device in diagnostics.
	TargetName() string
	// HomeLatency is the device access time to serve t when no cache owns
	// the block (reads) or to absorb the data (writes).
	HomeLatency(t *Transaction) sim.Time
	// HomeAccess is invoked when the transaction's effect reaches the
	// device — e.g. an uncached register write arriving at an NI. It runs
	// after HomeLatency has elapsed.
	HomeAccess(t *Transaction)
}

// Timing holds the bus timing parameters.
type Timing struct {
	Clock          sim.Clock // bus clock (250 MHz ⇒ 4 ns cycles)
	ArbAddrCycles  int64     // arbitration + address phase
	TurnCycles     int64     // turnaround before data beats
	BeatBytes      int       // bytes moved per data beat (256-bit bus ⇒ 32)
	CacheSupplyLat sim.Time  // processor-cache cache-to-cache supply latency
}

// DefaultTiming returns the Table 3 bus: 250 MHz, 256 bits wide, 2-cycle
// arbitration+address, 1-cycle turnaround, 24 ns cache-to-cache supply.
func DefaultTiming() Timing {
	return Timing{
		Clock:          sim.MHz(250),
		ArbAddrCycles:  2,
		TurnCycles:     1,
		BeatBytes:      32,
		CacheSupplyLat: 24 * sim.Nanosecond,
	}
}

type mapping struct {
	lo, hi Addr // [lo, hi)
	home   Target
}

// Bus is one node's memory bus.
type Bus struct {
	eng      *sim.Engine
	timing   Timing
	snoopers []Snooper
	ranges   []mapping
	freeAt   sim.Time
	node     *stats.Node
	pool     []*Transaction // recycled transaction records (see release)

	// Trace, if non-nil, receives a line per transaction (debugging).
	Trace func(format string, args ...any)
}

// New creates a bus on engine e with the given timing. stats may be nil.
func New(e *sim.Engine, timing Timing, node *stats.Node) *Bus {
	return &Bus{eng: e, timing: timing, node: node}
}

// AttachSnooper registers a coherent device (cache, CNI) on the bus.
func (b *Bus) AttachSnooper(s Snooper) { b.snoopers = append(b.snoopers, s) }

// MapRange routes [lo, hi) to home. Later mappings take precedence, so a
// device can overlay part of an earlier range.
func (b *Bus) MapRange(lo, hi Addr, home Target) {
	b.ranges = append(b.ranges, mapping{lo, hi, home})
}

// HomeOf returns the home device for address a, or nil if unmapped.
func (b *Bus) HomeOf(a Addr) Target {
	for i := len(b.ranges) - 1; i >= 0; i-- {
		if a >= b.ranges[i].lo && a < b.ranges[i].hi {
			return b.ranges[i].home
		}
	}
	return nil
}

// Timing returns the bus timing parameters.
func (b *Bus) Timing() Timing { return b.timing }

// reserve claims the bus for cycles bus cycles starting no earlier than
// ready, returning the start and end times of the occupancy.
func (b *Bus) reserve(ready sim.Time, cycles int64) (start, end sim.Time) {
	start = ready
	if b.freeAt > start {
		start = b.freeAt
	}
	start = b.timing.Clock.Align(start)
	end = start + b.timing.Clock.Cycles(cycles)
	b.freeAt = end
	return start, end
}

func (b *Bus) dataBeats(size int) int64 {
	if size <= 0 {
		size = BlockSize
	}
	beats := int64((size + b.timing.BeatBytes - 1) / b.timing.BeatBytes)
	if beats < 1 {
		beats = 1
	}
	return beats
}

// Issue places a transaction of kind k at a, moving size bytes (0 means a
// block), on the bus on behalf of req, which the snoop pass skips (nil
// when the issuer is not a snooper). It returns at once; when the
// transaction completes, done(recv, 0) runs inline at that simulated time,
// unless done is nil. Issue may be called from any simulation context.
//
//lint:hotpath
func (b *Bus) Issue(req Snooper, k Kind, a Addr, size int, done sim.Handler, recv any) {
	b.issue(req, k, a, size, done, recv)
}

// issue is Issue returning the record, for a blocked issuer to read back.
func (b *Bus) issue(req Snooper, k Kind, a Addr, size int, done sim.Handler, recv any) *Transaction {
	var t *Transaction
	if n := len(b.pool); n > 0 {
		t = b.pool[n-1]
		b.pool = b.pool[:n-1]
	} else {
		t = new(Transaction) //lint:allow noalloc pool miss: records are amortized to zero once the pool warms
	}
	if size == 0 {
		size = BlockSize
	}
	*t = Transaction{
		Kind: k, Addr: a, Size: size, Requester: req,
		bus: b, done: done, doneRecv: recv,
		refs: 1, // the pending address-phase event
	}
	if b.node != nil {
		b.node.BusTransactions++
		switch k { //lint:allow exhaustive stat classification counts only the two paper-visible transfer families; coherence kinds need no counter
		case UncachedRead, UncachedWrite:
			b.node.UncachedAccesses++
		case BlockRead, BlockWrite:
			b.node.BlockBufTransfers++
		}
	}
	_, addrEnd := b.reserve(b.eng.Now(), b.timing.ArbAddrCycles)
	b.eng.AtEvent(addrEnd, txnAddressPhase, t, 0)
	return t
}

// addressPhase runs at the end of the arbitration+address occupancy: snoop,
// pick the supplier, and schedule the data phase.
func (b *Bus) addressPhase(t *Transaction) {
	var supplyLat sim.Time
	fromCache := false

	if t.Kind.coherent() {
		for _, s := range b.snoopers {
			if s == t.Requester {
				continue
			}
			r := s.Snoop(t)
			if r.Owner {
				if fromCache {
					panic(fmt.Sprintf("membus: two owners for %s %#x", t.Kind, t.Addr))
				}
				fromCache = true
				supplyLat = r.SupplyLatency
				if supplyLat == 0 {
					supplyLat = b.timing.CacheSupplyLat
				}
			}
			if r.Shared {
				t.Shared = true
			}
		}
	}
	t.FromCache = fromCache

	home := b.HomeOf(t.Addr)
	if home == nil {
		panic(fmt.Sprintf("membus: no home for address %#x (%s)", t.Addr, t.Kind))
	}

	if b.Trace != nil {
		b.Trace("%s %#x size=%d fromCache=%v", t.Kind, t.Addr, t.Size, fromCache)
	}

	t.home = home
	switch t.Kind {
	case Upgrade, Invalidate:
		// No data phase and no home involvement: complete at the end of the
		// address phase.
		t.complete()
	case Writeback, UncachedWrite, BlockWrite, WriteInvalidate:
		// Write data follows the address phase immediately; the device
		// absorbs it HomeLatency later, but the requester is released as
		// soon as the bus accepts the data.
		t.refs += 2 // the pending write-done and home-access events
		_, dataEnd := b.reserve(b.eng.Now(), b.timing.TurnCycles+b.dataBeats(t.Size))
		lat := home.HomeLatency(t)
		b.eng.AtEvent(dataEnd+lat, txnHomeAccess, t, 0)
		b.eng.AtEvent(dataEnd, txnWriteDone, t, 0)
	default: //lint:allow exhaustive protocol dichotomy: the write-style kinds are enumerated above, every other kind is read-style
		// Read-style: the owner cache, or failing that the home, drives the
		// data after its access latency.
		t.refs++ // the pending read-done event
		t.homeSupplies = !fromCache
		if t.homeSupplies {
			supplyLat = home.HomeLatency(t)
		}
		ready := b.eng.Now() + supplyLat
		_, dataEnd := b.reserve(ready, b.timing.TurnCycles+b.dataBeats(t.Size))
		b.eng.AtEvent(dataEnd, txnReadDone, t, 0)
	}
}

// release drops one reference to t and returns the record to the pool
// once the last one is gone.
func (b *Bus) release(t *Transaction) {
	t.refs--
	if t.refs == 0 {
		b.pool = append(b.pool, t) //lint:allow noalloc the pool grows to the peak in-flight transaction count, then is reused
	}
}

// Access is AccessFrom for an issuer that is not a snooper, such as the
// processor's uncached and block-buffer accesses.
func (b *Bus) Access(p *sim.Process, k Kind, a Addr, size int) {
	b.AccessFrom(p, nil, k, a, size)
}

// AccessFrom issues the transaction Issue would and blocks p until it
// completes, charging the blocked time to p's current category. It
// reports the snoop results a cache needs to pick its MOESI fill state:
// whether another snooper retains a copy, and whether the data came
// cache-to-cache.
func (b *Bus) AccessFrom(p *sim.Process, req Snooper, k Kind, a Addr, size int) (shared, fromCache bool) {
	t := b.issue(req, k, a, size, sim.UnparkHandler, p)
	t.refs++ // the issuer's reference, released below
	p.Park()
	shared, fromCache = t.Shared, t.FromCache
	b.release(t)
	return shared, fromCache
}
