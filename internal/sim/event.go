package sim

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
// Determinism: pooling and cancellation cannot reorder same-time events.
// The heap orders by a key that ends in seq (see the heap order note
// below); seq is assigned once per schedule call from a monotonic counter
// and is never reused by a recycled record, so FIFO order among node-local
// same-timestamp events is exactly the order of the schedule calls.
// Cancellation removes a record without touching the key of any other
// record, and a binary heap's pop order is a pure function of the
// surviving keys.

// Handler is the code half of a typed event: a package-level function (or a
// wrapper around a method) invoked with the event's receiver and argument
// when the event fires. Handlers must not retain recv beyond the call.
type Handler func(recv any, arg uint64)

// event is one scheduled callback. Records are pooled: after firing or
// cancellation they return to the engine's free list and are reused, with
// gen bumped so stale Timer handles can never act on a recycled record.
type event struct {
	at      Time
	schedAt Time   // engine clock when the event was scheduled; see heap order note
	ord     uint64 // posting-node ordinal (node id + 1); 0 for node-local events
	ordSeq  uint64 // per-posting-node sequence; 0 when ord is 0
	seq     uint64

	h    Handler
	recv any
	arg  uint64

	gen  uint64 // recycle generation, guards Timer handles
	idx  int    // heap position; -1 when not queued
	next *event // free-list link
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
	return t.ev != nil && t.ev.gen == t.gen && t.ev.idx >= 0
}

// Stop cancels the timer's event, removing it from the schedule. It
// reports whether it removed a pending event; a timer that already fired
// or was already stopped returns false. Stopping is O(log n) and cannot
// reorder the remaining events (see the determinism note above).
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
		return &event{idx: -1} //lint:allow noalloc pool miss: fresh records are amortized to zero once the free list warms
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
	ev.idx = -1
	if e.pooled >= maxPooledEvents {
		return
	}
	ev.next = e.pool
	e.pool = ev
	e.pooled++
}

// eventHeap is a hand-rolled binary min-heap over (at, schedAt, ord,
// ordSeq, seq). It is not a container/heap implementation on purpose: the
// interface-based API boxes every pushed element, which was one allocation
// per scheduled event. Records carry their heap index so cancellation can
// remove them in O(log n).
//
// Heap order note: on a serial engine schedAt (the clock at schedule time)
// is nondecreasing in seq, so among plain events (ord 0) the full key pops
// in exactly the same order as the original (at, seq) key. The ord/ordSeq
// pair is the network-post tie-break: events posted through a netsim
// endpoint (AtEventPosted, AtEventStamped) carry their posting node's
// ordinal and per-node sequence, so two posts that tie on (at, schedAt)
// order by posting node rather than by which engine's schedule call
// happened to run first. That makes the pop order a pure function of the
// simulation's content — the property that lets a partitioned run
// (internal/sim/partition) integrate cross-shard events at window barriers
// and still pop them exactly where the serial engine would have.
type eventHeap struct {
	a []*event
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) less(i, j int) bool {
	if h.a[i].at != h.a[j].at {
		return h.a[i].at < h.a[j].at
	}
	if h.a[i].schedAt != h.a[j].schedAt {
		return h.a[i].schedAt < h.a[j].schedAt
	}
	if h.a[i].ord != h.a[j].ord {
		return h.a[i].ord < h.a[j].ord
	}
	if h.a[i].ordSeq != h.a[j].ordSeq {
		return h.a[i].ordSeq < h.a[j].ordSeq
	}
	return h.a[i].seq < h.a[j].seq
}

func (h *eventHeap) swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.a[i].idx = i
	h.a[j].idx = j
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
	start, n := i, len(h.a)
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

func (h *eventHeap) push(ev *event) {
	ev.idx = len(h.a)
	h.a = append(h.a, ev) //lint:allow noalloc heap backing array grows to the peak pending-event count, then is reused
	h.up(ev.idx)
}

func (h *eventHeap) pop() *event {
	ev := h.a[0]
	n := len(h.a) - 1
	if n > 0 {
		h.swap(0, n)
	}
	h.a[n] = nil
	h.a = h.a[:n]
	if n > 0 {
		h.down(0)
	}
	ev.idx = -1
	h.maybeShrink()
	return ev
}

// remove deletes the record at ev.idx, wherever it sits in the heap.
func (h *eventHeap) remove(ev *event) {
	i := ev.idx
	n := len(h.a) - 1
	if i != n {
		h.swap(i, n)
	}
	h.a[n] = nil
	h.a = h.a[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
	ev.idx = -1
	h.maybeShrink()
}

// minHeapCap is the backing-array size below which shrinking is pointless.
const minHeapCap = 64

// maybeShrink reallocates the backing array at quarter occupancy so a burst
// that briefly queued a huge number of events (a macrobenchmark phase
// fanning out sends) does not pin its peak footprint for the rest of the
// run. Halving (rather than fitting exactly) leaves 2x headroom, so a
// shrink is never immediately undone by the next push.
func (h *eventHeap) maybeShrink() {
	if c := cap(h.a); c > minHeapCap && len(h.a) <= c/4 {
		na := make([]*event, len(h.a), c/2) //lint:allow noalloc deliberate quarter-occupancy shrink so bursts do not pin their peak footprint
		copy(na, h.a)
		h.a = na
	}
}
