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

// IsWrite reports whether a transaction of kind k moves data to its home.
func (k Kind) IsWrite() bool {
	switch k { //lint:allow exhaustive membership predicate: kinds absent from the case list move no data or read it
	case Writeback, UncachedWrite, BlockWrite, WriteInvalidate:
		return true
	}
	return false
}

// Transaction is one bus operation, as the snoopers and the home device
// see it. Issuers do not build one: Issue fills a record from the bus's
// pool, which the bus recycles once the transaction's last phase event has
// fired.
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
	bus  *Bus
	home Target
	// done(doneRecv, flags), if done is non-nil, runs inline at the
	// simulated time the transaction completes: data delivered to the
	// requester, or write accepted by the bus. flags holds the snoop
	// results (DoneShared, DoneFromCache).
	done     sim.Handler
	doneRecv any
	// refs counts the pending phase events that hold the record, so it
	// returns to the pool only once the last one that could touch it is
	// gone.
	refs int8
}

// The snoop results a completion hook receives in its arg, which a cache
// needs to pick its MOESI fill state.
const (
	// DoneShared is set when another snooper retains a copy.
	DoneShared uint64 = 1 << iota
	// DoneFromCache is set when the data came cache-to-cache.
	DoneFromCache
)

// complete finishes the transaction by running its completion hook.
func (t *Transaction) complete() {
	if t.done == nil {
		return
	}
	var flags uint64
	if t.Shared {
		flags |= DoneShared
	}
	if t.FromCache {
		flags |= DoneFromCache
	}
	t.done(t.doneRecv, flags)
}

// Typed-event handlers for the transaction phases (see Transaction). Each
// releases its reference to the transaction after its last touch.
func txnAddressPhase(recv any, _ uint64) {
	t := recv.(*Transaction)
	t.bus.addressPhase(t)
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
	// the block (reads) or to absorb the data (writes), for an access the
	// device sees at time at: the end of t's address phase. The bus calls
	// it exactly once per transaction that reaches the device, and never
	// for one a cache supplies or one that moves no data, so a device
	// counts its accesses and claims its access slots here. at is not
	// always the engine clock: a closed access train (see ClosedAccess)
	// computes its accesses before their time.
	HomeLatency(t *Transaction, at sim.Time) sim.Time
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

	// procOnly marks a bus that no master but the node's processor drives
	// (see SetProcessorOnly). heldUntil is the completion time of the
	// latest closed access.
	procOnly  bool
	heldUntil sim.Time

	// Trace, if non-nil, receives a line per transaction (debugging). A
	// traced bus runs every access train step by step (ClosedTrains).
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

// SetProcessorOnly marks the bus as driven by no master but the node's
// processor, its cache included: no NI-side engine issues transactions on
// it while the processor runs an access train. The NI composer marks the
// bus of every spec that builds no NI-side bus master.
func (b *Bus) SetProcessorOnly() { b.procOnly = true }

// ClosedTrains reports whether the processor may time its access trains in
// closed form (ClosedAccess) on this bus: no other master drives it, and
// no tracer watches its transactions one by one.
func (b *Bus) ClosedTrains() bool { return b.procOnly && b.Trace == nil }

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
// transaction completes, done(recv, flags) runs inline at that simulated
// time with the snoop results in flags (DoneShared, DoneFromCache), unless
// done is nil. Issue may be called from any simulation context.
//
//lint:hotpath
func (b *Bus) Issue(req Snooper, k Kind, a Addr, size int, done sim.Handler, recv any) {
	if now := b.eng.Now(); now < b.heldUntil {
		panic(fmt.Sprintf("membus: %s %#x issued at %v while a closed access train holds the bus until %v", k, a, now, b.heldUntil))
	}
	t := b.take()
	if size == 0 {
		size = BlockSize
	}
	*t = Transaction{
		Kind: k, Addr: a, Size: size, Requester: req,
		bus: b, done: done, doneRecv: recv,
		refs: 1, // the pending address-phase event
	}
	b.count(k)
	_, addrEnd := b.reserve(b.eng.Now(), b.timing.ArbAddrCycles)
	b.eng.AtEvent(addrEnd, txnAddressPhase, t, 0)
}

// take returns a record from the pool, or a new one.
func (b *Bus) take() *Transaction {
	if n := len(b.pool); n > 0 {
		t := b.pool[n-1]
		b.pool = b.pool[:n-1]
		return t
	}
	return new(Transaction) //lint:allow noalloc pool miss: records are amortized to zero once the pool warms
}

// count adds a transaction of kind k to the node's bus counters.
func (b *Bus) count(k Kind) {
	if b.node == nil {
		return
	}
	b.node.BusTransactions++
	switch k { //lint:allow exhaustive stat classification counts only the two paper-visible transfer families; coherence kinds need no counter
	case UncachedRead, UncachedWrite:
		b.node.UncachedAccesses++
	case BlockRead, BlockWrite:
		b.node.BlockBufTransfers++
	}
}

// ClosedAccess applies, at once, everything Issue(nil, k, a, size, ...)
// called at time at would apply over the transaction's life, for a
// non-coherent kind on a bus where ClosedTrains holds: the bus counters,
// the address-phase and data-phase occupancy with the same clock
// alignment, and the home device's access at the address phase's end. It
// schedules nothing and returns that address-phase end and the completion
// time, when Issue would run its done hook.
//
// The processor's access trains call it in virtual time, ahead of the
// engine clock. That is exact only because nothing else uses what it
// touches before the train completes, so until the returned completion
// time any other Issue on the bus panics.
//
//lint:hotpath
func (b *Bus) ClosedAccess(k Kind, a Addr, size int, at sim.Time) (addrEnd, done sim.Time) {
	if !b.procOnly || k.coherent() {
		panic(fmt.Sprintf("membus: closed %s on a bus not marked processor-only, or of a coherent kind", k))
	}
	if size == 0 {
		size = BlockSize
	}
	t := b.take()
	*t = Transaction{Kind: k, Addr: a, Size: size, bus: b, refs: 1}
	b.count(k)
	_, addrEnd = b.reserve(at, b.timing.ArbAddrCycles)
	t.home = b.homeFor(t)
	done = b.dataPhase(t, addrEnd, 0)
	b.release(t)
	b.heldUntil = done
	return addrEnd, done
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

	t.home = b.homeFor(t)

	if b.Trace != nil {
		b.Trace("%s %#x size=%d fromCache=%v", t.Kind, t.Addr, t.Size, fromCache)
	}

	switch {
	case t.Kind == Upgrade || t.Kind == Invalidate:
		// No data phase and no home involvement: complete at the end of the
		// address phase.
		t.complete()
	case t.Kind.IsWrite():
		t.refs++ // the pending write-done event
		b.eng.AtEvent(b.dataPhase(t, b.eng.Now(), supplyLat), txnWriteDone, t, 0)
	default:
		t.refs++ // the pending read-done event
		b.eng.AtEvent(b.dataPhase(t, b.eng.Now(), supplyLat), txnReadDone, t, 0)
	}
}

// homeFor returns t's home device, which must exist.
func (b *Bus) homeFor(t *Transaction) Target {
	home := b.HomeOf(t.Addr)
	if home == nil {
		panic(fmt.Sprintf("membus: no home for address %#x (%s)", t.Addr, t.Kind))
	}
	return home
}

// dataPhase claims the data phase of t, a data-moving transaction whose
// address phase ended at at, and returns its end: the completion time.
// Write data follows the address phase immediately, and the requester is
// released as soon as the bus accepts it; the home still claims its access
// for the data. A read's data comes from the owner cache, whose supply
// latency is supplyLat, or, when t.FromCache is clear, from the home after
// its access latency.
func (b *Bus) dataPhase(t *Transaction, at, supplyLat sim.Time) sim.Time {
	cycles := b.timing.TurnCycles + b.dataBeats(t.Size)
	if t.Kind.IsWrite() {
		_, end := b.reserve(at, cycles)
		t.home.HomeLatency(t, at)
		return end
	}
	if !t.FromCache {
		supplyLat = t.home.HomeLatency(t, at)
	}
	_, end := b.reserve(at+supplyLat, cycles)
	return end
}

// release drops one reference to t and returns the record to the pool
// once the last one is gone.
func (b *Bus) release(t *Transaction) {
	t.refs--
	if t.refs == 0 {
		b.pool = append(b.pool, t) //lint:allow noalloc the pool grows to the peak in-flight transaction count, then is reused
	}
}

// Access issues the transaction Issue would for an issuer that is not a
// snooper, such as the RDMA engine's DMA reads, and blocks p until it
// completes, charging the blocked time to p's current category. The
// processor's own accesses never block here: they run as access trains
// (proc.Train).
func (b *Bus) Access(p *sim.Process, k Kind, a Addr, size int) {
	b.Issue(nil, k, a, size, sim.UnparkHandler, p)
	p.Park()
}
