// Package partition runs one simulation across several sim.Engine shards
// using conservative time windows. The network's fixed minimum latency is
// the lookahead: because every cross-shard event is scheduled at least one
// lookahead after the instant that produced it, all shards can execute a
// window of that width completely independently, exchange the events they
// generated for each other at a barrier, and repeat — no rollback, no
// speculation, bit-identical results (see DESIGN.md §10).
//
// Windows are adaptive and per-shard (see WindowEnds): a shard whose next
// pending event is far in the future — a compute phase, an idle client —
// gets a window bounded only by what its peers could send it, not by the
// single global minimum. The policy never admits an event before its
// conservative bound, so results stay byte-identical to the serial engine;
// it only changes how much simulated time each barrier round covers.
//
// This package is the one sanctioned home for cross-shard communication in
// the simulation core (the nogoroutine lint pass whitelists it): worker goroutines own their shard's engine exclusively
// between barriers, and every handoff between them rides this package's
// barrier protocol. Windows arrive hundreds of thousands of times per run,
// so the barrier is a spin protocol on three atomics — an epoch the
// coordinator bumps to open a window, a published window end, and an
// arrival counter the workers bump to close it — rather than a channel
// ping-pong, whose scheduler wakeups would cost more than the windows
// themselves. The atomics carry the same happens-before edges a channel
// would, so the construction stays race-free (the race detector agrees).
// Cross-shard events never ride the barrier itself — they accumulate in
// per-shard outboxes written only by their source shard's worker and
// drained only by the coordinator between windows.
package partition

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"nisim/internal/sim"
)

// Record is one cross-shard event handoff: a typed event captured by the
// source shard's outbox during a window and integrated into the destination
// shard's queue at the next barrier. At and SchedAt reproduce the exact
// queue key a serial engine would have used ((at, schedAt, ord, ordSeq) —
// see sim.AtEventStamped); Src and Seq make the barrier merge order total
// and deterministic.
type Record struct {
	// At is the absolute firing time; always >= the window end (the
	// lookahead guarantee).
	At sim.Time
	// SchedAt is the source engine's clock when the event was produced.
	SchedAt sim.Time
	// Src and Dst are the source and destination node ids.
	Src, Dst int
	// Seq is the source node's per-node post sequence (netsim's postSeq),
	// the final merge tie-break and the ordSeq half of the destination
	// engine's queue key (see sim.AtEventPosted).
	Seq uint64
	// H is the typed event's handler, exactly as a serial engine would
	// schedule it.
	H sim.Handler
	// Recv is the event's receiver, passed to H when it fires.
	Recv any
	// Arg is the event's packed argument, passed to H when it fires.
	Arg uint64
}

// byKey orders records by (At, SchedAt, Src, Seq) — the serial queue key
// extended with a total deterministic tie-break, so the barrier merge is
// independent of outbox traversal order.
func byKey(a, b Record) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.SchedAt != b.SchedAt {
		return a.SchedAt < b.SchedAt
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// Control customizes a Run loop at its barriers. The zero value runs
// windows at the maximum width the lookahead allows until the group goes
// dry.
type Control struct {
	// CapWindow, if non-nil, may lower the proposed end of the next window
	// (e.g. to land a barrier exactly on a watchdog sampling boundary). It
	// is consulted once per shard per round with that shard's own clock and
	// proposed end; it must return a time in [now, proposed] (a shard whose
	// peers have already reached the cap may legitimately get a zero-width
	// window), and returning proposed unchanged is always legal.
	CapWindow func(now, proposed sim.Time) sim.Time
	// AfterWindow, if non-nil, runs on the coordinator at each barrier,
	// after every shard has settled at its window end and all cross-shard
	// events have been integrated. end is the minimum window end across
	// shards — the time every shard is guaranteed to have reached, i.e.
	// the group's conservative global clock. Returning false stops the
	// run. Reading any shard's state is safe here: the barrier is a
	// happens-before edge.
	AfterWindow func(end sim.Time) bool
}

// Group drives a fixed set of engine shards through conservative windows.
// Create with New, run with Run, release the worker goroutines with Close.
// A Group is not safe for concurrent use by multiple coordinators.
type Group struct {
	engines   []*sim.Engine
	shardOf   []int // node id -> shard index
	lookahead sim.Time

	out   [][][]Record // [srcShard][dstShard]: outboxes, single-writer per window
	merge []Record     // reusable barrier merge buffer

	// Per-round scratch for Run: each shard's next pending event time and
	// its computed window end (see WindowEnds). Allocated once in New.
	next []sim.Time
	has  []bool
	endv []sim.Time

	// The spin barrier. The coordinator publishes the next window by
	// storing each shard's end and bumping epoch; each worker spins on
	// epoch, runs its shard's window to its own end slot, and bumps
	// arrived. Shard 0 is run inline by the coordinator itself, so a group
	// of S shards keeps exactly S goroutines hot. fail[s] is shard s's
	// recovered panic for the current window, written before the arrived
	// bump and read only after the barrier settles (both edges carried by
	// the atomics).
	epoch   atomic.Uint64
	ends    []atomic.Int64
	arrived atomic.Int32
	stop    atomic.Bool
	fail    []any

	closed bool
}

// New builds a group over engines. shardOf maps every node id to its
// engine's index; lookahead is the minimum cross-shard scheduling distance
// (the network latency) and must be positive. New spawns one worker
// goroutine per engine beyond the first (shard 0 runs on the coordinating
// goroutine); the engines must not be touched except through the group (or
// from AfterWindow) until Close.
func New(engines []*sim.Engine, shardOf []int, lookahead sim.Time) *Group {
	if len(engines) == 0 {
		panic("partition: need at least one engine")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("partition: non-positive lookahead %v", lookahead))
	}
	for n, s := range shardOf {
		if s < 0 || s >= len(engines) {
			panic(fmt.Sprintf("partition: node %d mapped to shard %d of %d", n, s, len(engines)))
		}
	}
	g := &Group{
		engines:   engines,
		shardOf:   shardOf,
		lookahead: lookahead,
		next:      make([]sim.Time, len(engines)),
		has:       make([]bool, len(engines)),
		endv:      make([]sim.Time, len(engines)),
		ends:      make([]atomic.Int64, len(engines)),
		fail:      make([]any, len(engines)),
	}
	g.out = make([][][]Record, len(engines))
	for s := range g.out {
		g.out[s] = make([][]Record, len(engines))
	}
	for s := 1; s < len(engines); s++ {
		go g.worker(s) // one long-lived worker per shard; it owns its engine exclusively between barriers
	}
	return g
}

// Shards returns the number of engine shards.
func (g *Group) Shards() int { return len(g.engines) }

// ShardOf returns the shard index owning node id. Together with Post it
// satisfies netsim.Router.
func (g *Group) ShardOf(node int) int { return g.shardOf[node] }

// Post records a cross-shard typed event: h(recv, arg) fires at time at on
// the shard owning node dst, exactly as if the source shard's engine had
// posted it at time schedAt with node src's per-node post sequence seq.
// Post must only be called from the source shard's worker during a window
// (netsim endpoints do this through the Router seam); the record is
// integrated at the next barrier. at must be at least one lookahead past
// schedAt — that distance is what makes the window safe — and integration
// enforces it by panicking on an event that would land before the barrier.
//
//lint:hotpath
func (g *Group) Post(src, dst int, at, schedAt sim.Time, seq uint64, h sim.Handler, recv any, arg uint64) {
	s := g.shardOf[src]
	d := g.shardOf[dst]
	g.out[s][d] = append(g.out[s][d], Record{ //lint:allow noalloc outbox backing arrays grow to the per-window peak, then are reused across barriers
		At: at, SchedAt: schedAt, Src: src, Dst: dst, Seq: seq,
		H: h, Recv: recv, Arg: arg,
	})
}

// worker is the per-shard goroutine for shards 1..S-1: it spins on the
// barrier epoch, executes one window per bump, and reports its arrival.
// Yielding inside the spin keeps oversubscribed hosts live; on a machine
// with a core per shard the loop observes the next epoch within a few
// hundred nanoseconds, which is what makes sub-microsecond windows worth
// parallelizing at all.
func (g *Group) worker(s int) {
	seen := uint64(0)
	for {
		for g.epoch.Load() == seen {
			if g.stop.Load() {
				return
			}
			runtime.Gosched()
		}
		seen++
		g.window(s)
		g.arrived.Add(1)
	}
}

// window runs one shard's window to its published end, converting a panic
// into a barrier arrival carrying the failure.
func (g *Group) window(s int) {
	defer func() {
		g.fail[s] = recover()
	}()
	g.engines[s].RunWindow(sim.Time(g.ends[s].Load())) //lint:allow simtime the atomic barrier slot stores a sim.Time round-tripped through int64, not a raw duration
}

// runWindow drives every shard through one window to its slot in g.endv
// and waits for the barrier: publish the per-shard ends, run shard 0
// inline, spin until the other shards arrive. A panic on any shard is
// re-raised here (lowest shard id wins, deterministically) after the
// barrier settles, with the group closed so no goroutine is left behind.
func (g *Group) runWindow() {
	for s := range g.endv {
		g.ends[s].Store(int64(g.endv[s]))
	}
	g.epoch.Add(1)
	g.window(0)
	others := int32(len(g.engines) - 1)
	for g.arrived.Load() != others {
		runtime.Gosched()
	}
	g.arrived.Store(0)
	for s := range g.engines {
		if f := g.fail[s]; f != nil {
			g.Close()
			panic(f)
		}
	}
}

// integrate drains every outbox into the destination shards' queues in
// (At, SchedAt, Src, Seq) order. Called by the coordinator between
// windows, when no worker is running.
func (g *Group) integrate() {
	buf := g.merge[:0]
	for s := range g.out {
		for d := range g.out[s] {
			buf = append(buf, g.out[s][d]...)
			g.out[s][d] = g.out[s][d][:0]
		}
	}
	sort.Slice(buf, func(i, j int) bool { return byKey(buf[i], buf[j]) })
	for i := range buf {
		r := &buf[i]
		g.engines[g.shardOf[r.Dst]].AtEventStamped(r.At, r.SchedAt, r.Src, r.Seq, r.H, r.Recv, r.Arg)
		r.Recv = nil // the queue owns the reference now; don't pin it from the spare buffer
	}
	g.merge = buf
}

// WindowEnds computes the adaptive per-shard window ends for one barrier
// round. next[s] is shard s's earliest pending event time, valid only when
// has[s]; ends[s] receives shard s's window end. At least one shard must
// have a pending event.
//
// The bound for shard d is
//
//	ends[d] = min(lookahead + min_{r≠d} next[r],  m1 + 2·lookahead)
//
// where m1 is the global minimum of next (absent peers contribute nothing
// to the first term). Safety: any event another shard r executes this
// round fires at or after next[r], so anything it posts to d arrives at or
// after next[r]+lookahead ≥ ends[d] — integration never lands an event in
// d's past. The second term caps how far the quietest shard may run ahead:
// without it a lone busy shard could outrun the replies its own posts
// provoke (a message at t+lookahead answered at t+2·lookahead must still
// find its destination's clock at or below t+2·lookahead). The cap also
// makes the bound the greatest fixpoint of the mutual-recurrence
// F_d = min(next[d], min_{r≠d} F_r + lookahead) shifted by one lookahead —
// no wider correct window exists under these inputs.
//
// For every shard other than the minimum's owner the first term reduces to
// m1+lookahead, the classic global conservative window; the owner itself
// gets min(m2+lookahead, m1+2·lookahead) where m2 is the runner-up, which
// is strictly wider whenever its peers lag — that widening is what shrinks
// barrier counts on compute phases. Ends never regress across rounds, and
// the minimum's owner always gets a window strictly past its own event, so
// the group makes progress even when other shards' windows are zero-width.
func WindowEnds(next []sim.Time, has []bool, lookahead sim.Time, ends []sim.Time) {
	d1 := -1
	for s := range next {
		if has[s] && (d1 < 0 || next[s] < next[d1]) {
			d1 = s
		}
	}
	if d1 < 0 {
		panic("partition: WindowEnds with no pending events")
	}
	m1 := next[d1]
	m2, has2 := sim.Time(0), false
	for s := range next {
		if s != d1 && has[s] && (!has2 || next[s] < m2) {
			m2, has2 = next[s], true
		}
	}
	bounce := m1 + lookahead + lookahead // the 2·lookahead bounce-back cap
	for d := range ends {
		other, ok := m1, true
		if d == d1 {
			other, ok = m2, has2
		}
		end := bounce
		if ok && other+lookahead < end {
			end = other + lookahead
		}
		ends[d] = end
	}
}

// Run executes conservative windows until ctrl.AfterWindow stops the run
// (returning true) or every shard's queue goes dry (returning false — the
// caller decides whether dry means finished or stranded). Each iteration:
// gather every shard's earliest pending event, derive per-shard window
// ends (WindowEnds, optionally capped per shard by ctrl.CapWindow), run
// every shard to its own end, integrate the outboxes, then consult
// ctrl.AfterWindow at the barrier with the minimum end.
func (g *Group) Run(ctrl Control) bool {
	for {
		any := false
		for s, e := range g.engines {
			g.next[s], g.has[s] = e.NextEventAt()
			any = any || g.has[s]
		}
		if !any {
			return false
		}
		WindowEnds(g.next, g.has, g.lookahead, g.endv)
		minEnd := sim.Time(0)
		for s := range g.endv {
			now := g.engines[s].Now()
			end := g.endv[s]
			if ctrl.CapWindow != nil {
				end = ctrl.CapWindow(now, end)
			}
			if end < now {
				panic(fmt.Sprintf("partition: shard %d window end %v before now %v", s, end, now))
			}
			g.endv[s] = end
			if s == 0 || end < minEnd {
				minEnd = end
			}
		}
		g.runWindow()
		g.integrate()
		if ctrl.AfterWindow != nil && !ctrl.AfterWindow(minEnd) {
			return true
		}
	}
}

// Close releases the worker goroutines. The engines remain valid (e.g. for
// draining processes); the group must not be used afterwards. Close is
// idempotent.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	g.stop.Store(true)
}
