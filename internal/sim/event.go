package sim

import "math/bits"

// Typed events and cancellable timers: the allocation-free scheduling path.
//
// Every event is typed. A closure per event would allocate its captured
// operands at every hop, bus phase and process resume, which put the
// garbage collector on the critical path of every experiment cell; so an
// event is split into code and data halves instead:
//
//   - the code half is a Handler, a package-level func (or method
//     expression wrapper) shared by every event of its kind — creating one
//     never allocates;
//   - the data half is a receiver pointer (stored in an interface word —
//     pointer-shaped, so no boxing) plus one uint64 argument.
//
// Event records themselves are pooled on a free list and reused, so a
// steady-state schedule→fire cycle performs zero heap allocations (gated by
// TestTypedScheduleAllocFree).
//
// Determinism: the queue, pooling and cancellation cannot reorder
// same-time events. The queue pops in the order of a total key that ends
// in seq (see the key order note below); seq is assigned once per schedule
// call from a monotonic counter and is never reused by a recycled record,
// so FIFO order among node-local same-timestamp events is exactly the
// order of the schedule calls. Which tier holds an event decides only how
// it is found, never where it pops: each tier yields its events in key
// order and pop takes the smaller of the two heads. Cancellation removes a
// record without touching the key of any other record, so the survivors
// pop in the order of their own keys.

// Handler is the code half of a typed event: a package-level function (or a
// wrapper around a method) invoked with the event's receiver and argument
// when the event fires. Handlers must not retain recv beyond the call.
type Handler func(recv any, arg uint64)

// event is one scheduled callback. Records are pooled: after firing or
// cancellation they return to the engine's free list and are reused, with
// gen bumped so stale Timer handles can never act on a recycled record.
type event struct {
	at      Time
	schedAt Time   // engine clock when the event was scheduled; see key order note
	ord     uint64 // posting-node ordinal (node id + 1); 0 for node-local events
	ordSeq  uint64 // per-posting-node sequence; 0 when ord is 0
	seq     uint64

	h    Handler
	recv any
	arg  uint64

	gen        uint64 // recycle generation, guards Timer handles
	idx        int    // far-heap position, or inNear or notQueued
	prev, next *event // near-bucket links; next is also the free-list link
}

// Timer is a handle on a scheduled event that can be cancelled. The zero
// value is inert: Stop and Active on it return false. Timer is a small
// value (no allocation to create or copy); holding one does not keep the
// event alive past its firing.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Active reports whether the timer's event is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.idx != notQueued
}

// Stop cancels the timer's event, removing it from the schedule. It
// reports whether it removed a pending event; a timer that already fired
// or was already stopped returns false. Stopping is O(1) for an event in
// the queue's near tier and O(log n) in its far tier, and cannot reorder
// the remaining events (see the determinism note above).
//
//lint:hotpath
func (t Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.eng.pq.remove(t.ev)
	t.eng.release(t.ev)
	return true
}

// alloc takes an event record from the pool, or makes a new one.
func (e *Engine) alloc() *event {
	ev := e.pool
	if ev == nil {
		return &event{idx: notQueued} //lint:allow noalloc pool miss: fresh records are amortized to zero once the free list warms
	}
	e.pool = ev.next
	e.pooled--
	ev.next = nil
	return ev
}

// maxPooledEvents bounds the free list so the pool cannot pin the peak
// concurrent-event footprint of one phase for the rest of a long run;
// records beyond the bound are left to the garbage collector.
const maxPooledEvents = 4096

// release scrubs a fired or cancelled record and returns it to the pool.
// The generation bump invalidates every outstanding Timer handle on it.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.h, ev.recv = nil, nil
	if e.pooled >= maxPooledEvents {
		return
	}
	ev.next = e.pool
	e.pool = ev
	e.pooled++
}

// Queue geometry. The near tier is a ring of nearBuckets buckets, each
// 1<<bucketShift ps (4.096 ns) wide, so it covers the ~1.05 µs ahead of the
// clock that almost every event lands in: process wake-ups, bus phases and
// network hops are scheduled 8–600 ns ahead. The bucket array is 4 KiB
// inline in each Engine, kept small because every experiment cell builds
// an engine; the tier sizes are fixed, not tunable.
const (
	bucketShift = 12
	nearBuckets = 256
	nearMask    = nearBuckets - 1
	nearWords   = nearBuckets / 64
)

// Values of event.idx that are not far-heap positions.
const (
	notQueued = -1 // fired, cancelled or pooled
	inNear    = -2 // linked into a near-tier bucket
)

// eventHeap is the event queue: a two-tier priority queue over the full
// key (at, schedAt, ord, ordSeq, seq).
//
//   - The near tier holds events whose bucket (at>>bucketShift) is fewer
//     than nearBuckets buckets past the clock's bucket when they are
//     scheduled. Each bucket is an intrusive doubly linked list kept in
//     full-key order; an insert walks back from the tail, a short walk
//     because later schedules mostly carry later keys. A bitmap of
//     non-empty buckets finds the first one from the clock's bucket.
//   - The far tier is a hand-rolled binary min-heap holding everything
//     else. It is not a container/heap implementation on purpose: the
//     interface-based API boxes every pushed element, one allocation per
//     scheduled event. Records carry their heap index so cancellation
//     removes them in O(log n).
//
// pop takes the smaller of the near head and the far top by the full key.
// Nothing ever migrates between tiers, so the pop order is the key order by
// construction: a far event that the clock has since caught up with still
// competes by key against the near head. Ring slots are unambiguous
// because every pending event has at >= now and now only grows: a near
// event's bucket lies in [now's bucket, now's bucket + nearBuckets).
//
// Key order note: on a serial engine schedAt (the clock at schedule time)
// is nondecreasing in seq, so among plain events (ord 0) the full key pops
// in exactly the same order as an (at, seq) key. The ord/ordSeq pair is
// the network-post tie-break: events posted through a netsim endpoint
// (AtEventPosted, AtEventStamped) carry their posting node's ordinal and
// per-node sequence, so two posts that tie on (at, schedAt) order by
// posting node rather than by which engine's schedule call happened to run
// first. That makes the pop order a pure function of the simulation's
// content — the property that lets a partitioned run
// (internal/sim/partition) integrate cross-shard events at window barriers
// and still pop them exactly where the serial engine would have.
type eventHeap struct {
	near  [nearBuckets]bucket
	occ   [nearWords]uint64 // bit b set iff near[b] is non-empty
	nearN int
	far   []*event
}

// bucket is one near-tier list; head and tail share a cache line.
type bucket struct{ head, tail *event }

func (h *eventHeap) len() int { return h.nearN + len(h.far) }

// before reports whether a pops before b: the full-key order.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.ord != b.ord {
		return a.ord < b.ord
	}
	if a.ordSeq != b.ordSeq {
		return a.ordSeq < b.ordSeq
	}
	return a.seq < b.seq
}

func bucketOf(t Time) uint { return uint(t>>bucketShift) & nearMask }

// push enqueues ev, whose key is in place and whose at is not before now.
// A near event is linked into its bucket at its key position, walking back
// from the tail.
//
//lint:hotpath
func (h *eventHeap) push(ev *event, now Time) {
	if uint64(ev.at>>bucketShift-now>>bucketShift) >= nearBuckets {
		h.pushFar(ev)
		return
	}
	b := bucketOf(ev.at)
	bk := &h.near[b]
	p := bk.tail
	for p != nil && before(ev, p) {
		p = p.prev
	}
	ev.idx, ev.prev = inNear, p
	if p == nil {
		ev.next = bk.head
		bk.head = ev
	} else {
		ev.next = p.next
		p.next = ev
	}
	if ev.next == nil {
		bk.tail = ev
	} else {
		ev.next.prev = ev
	}
	h.occ[b/64] |= 1 << (b % 64)
	h.nearN++
}

// nearFirst returns the near tier's earliest event, or nil: the head of
// the first non-empty bucket at or after now's bucket, in ring order.
//
//lint:hotpath
func (h *eventHeap) nearFirst(now Time) *event {
	if h.nearN == 0 {
		return nil
	}
	s := bucketOf(now)
	w := s / 64
	if m := h.occ[w] >> (s % 64); m != 0 {
		return h.near[s+uint(bits.TrailingZeros64(m))].head
	}
	// The remaining words in ring order; the last pass over word w sees
	// only the buckets before s, which hold the ring's wrapped tail.
	for i := uint(1); i <= nearWords; i++ {
		ww := (w + i) % nearWords
		if m := h.occ[ww]; m != 0 {
			return h.near[(ww*64+uint(bits.TrailingZeros64(m)))&nearMask].head
		}
	}
	panic("sim: near-tier count disagrees with its bitmap")
}

// peek returns the earliest pending event without removing it, or nil:
// the smaller of the near head and the far top by the full key.
//
//lint:hotpath
func (h *eventHeap) peek(now Time) *event {
	ev := h.nearFirst(now)
	if len(h.far) > 0 && (ev == nil || before(h.far[0], ev)) {
		return h.far[0]
	}
	return ev
}

// pop removes and returns the earliest pending event, or nil.
//
//lint:hotpath
func (h *eventHeap) pop(now Time) *event {
	ev := h.peek(now)
	if ev != nil {
		h.remove(ev)
	}
	return ev
}

// remove dequeues ev from whichever tier holds it: an O(1) unlink from a
// near bucket, or an O(log n) removal from the far heap. An unlinked
// record's own links go stale; push and the free list overwrite them
// before they are read again.
//
//lint:hotpath
func (h *eventHeap) remove(ev *event) {
	if ev.idx != inNear {
		h.removeFar(ev.idx)
		ev.idx = notQueued
		return
	}
	b := bucketOf(ev.at)
	bk := &h.near[b]
	if ev.prev == nil {
		bk.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		bk.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	if bk.head == nil {
		h.occ[b/64] &^= 1 << (b % 64)
	}
	h.nearN--
	ev.idx = notQueued
}

func (h *eventHeap) less(i, j int) bool { return before(h.far[i], h.far[j]) }

func (h *eventHeap) swap(i, j int) {
	h.far[i], h.far[j] = h.far[j], h.far[i]
	h.far[i].idx = i
	h.far[j].idx = j
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) down(i int) bool {
	start, n := i, len(h.far)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
	return i > start
}

func (h *eventHeap) pushFar(ev *event) {
	ev.idx = len(h.far)
	h.far = append(h.far, ev) //lint:allow noalloc heap backing array grows to the peak pending-event count, then is reused
	h.up(ev.idx)
}

// removeFar deletes the far-heap record at position i.
func (h *eventHeap) removeFar(i int) {
	n := len(h.far) - 1
	if i != n {
		h.swap(i, n)
	}
	h.far[n] = nil
	h.far = h.far[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
	h.maybeShrink()
}

// minHeapCap is the backing-array size below which shrinking is pointless.
const minHeapCap = 64

// maybeShrink reallocates the far heap's backing array at quarter
// occupancy so a burst that briefly queued a huge number of events (a
// macrobenchmark phase fanning out sends) does not pin its peak footprint
// for the rest of the run. Halving (rather than fitting exactly) leaves 2x
// headroom, so a shrink is never immediately undone by the next push.
func (h *eventHeap) maybeShrink() {
	if c := cap(h.far); c > minHeapCap && len(h.far) <= c/4 {
		na := make([]*event, len(h.far), c/2) //lint:allow noalloc deliberate quarter-occupancy shrink so bursts do not pin their peak footprint
		copy(na, h.far)
		h.far = na
	}
}
