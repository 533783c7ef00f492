package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// rigCacheBytes is the size of a rig's caches: small, so tests can force
// conflicts.
const rigCacheBytes = 1 << 16

// rig assembles an engine, one bus, DRAM at [0, 1GB), and n caches.
type rig struct {
	eng    *sim.Engine
	bus    *membus.Bus
	mem    *mainmem.Memory
	caches []*Cache
	node   *stats.Node
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(), node: stats.NewNode()}
	r.bus = membus.New(r.eng, membus.DefaultTiming(), r.node)
	r.mem = mainmem.New("dram", 120*sim.Nanosecond, r.eng)
	r.bus.MapRange(0, 1<<30, r.mem)
	for i := 0; i < n; i++ {
		cfg := DefaultConfig()
		cfg.SizeBytes = rigCacheBytes
		r.caches = append(r.caches, New("c", r.eng, r.bus, cfg, r.node))
	}
	return r
}

// writebackLog is a Target that passes every access on to the rig's DRAM
// and records the address of each writeback in [lo, hi) it sees.
type writebackLog struct {
	*mainmem.Memory
	lo, hi membus.Addr
	addrs  []membus.Addr
}

func (w *writebackLog) HomeLatency(t *membus.Transaction, at sim.Time) sim.Time {
	if t.Kind == membus.Writeback && t.Addr >= w.lo && t.Addr < w.hi {
		w.addrs = append(w.addrs, t.Addr)
	}
	return w.Memory.HomeLatency(t, at)
}

// logWritebacks routes all of DRAM through a writebackLog of [lo, hi).
func (r *rig) logWritebacks(lo, hi membus.Addr) *writebackLog {
	w := &writebackLog{Memory: r.mem, lo: lo, hi: hi}
	r.bus.MapRange(0, 1<<30, w)
	return w
}

// drive is the reference per-step driver of an Op in process context: p
// parks on each bus transaction and sleeps through each hit, as a process
// issuing the load of n bytes at a, or the store when write, one step at a
// time would. The processor's access trains (proc.Train) drive Ops from
// event context instead.
func (c *Cache) drive(p *sim.Process, a membus.Addr, n int, write bool) {
	op := c.Start(a, n, write, sim.UnparkHandler, p)
	for {
		d, busy := op.Step()
		switch {
		case busy:
			p.Park()
		case d > 0:
			p.Sleep(d)
		default:
			return
		}
	}
}

// read loads the n bytes at a, blocking p until the data is available.
func (c *Cache) read(p *sim.Process, a membus.Addr, n int) { c.drive(p, a, n, false) }

// write stores the n bytes at a, blocking p until the store is ordered.
func (c *Cache) write(p *sim.Process, a membus.Addr, n int) { c.drive(p, a, n, true) }

// flush writes back (if dirty) and invalidates the block containing a.
func (c *Cache) flush(p *sim.Process, a membus.Addr) {
	block := membus.BlockOf(a)
	if l := c.slot(block); l.holds(block) && c.evict(l, sim.UnparkHandler, p) {
		p.Park()
		l.set(l.block(), Invalid)
	}
}

// runProc runs body as a process and drives the engine to completion.
func (r *rig) runProc(t *testing.T, body func(p *sim.Process)) sim.Time {
	t.Helper()
	p := r.eng.Spawn("test", body)
	r.eng.Run()
	if !p.Done() {
		t.Fatal("process did not finish (deadlock)")
	}
	return r.eng.Now()
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(t, 1)
	c := r.caches[0]
	var missT, hitT sim.Time
	r.runProc(t, func(p *sim.Process) {
		start := p.Now()
		c.read(p, 0x1000, 8)
		missT = p.Now() - start
		start = p.Now()
		c.read(p, 0x1008, 8) // same block
		hitT = p.Now() - start
	})
	if c.Misses != 1 || c.Hits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1/1", c.Misses, c.Hits)
	}
	// Miss: 2-cycle addr (8ns) + 120ns DRAM + turnaround+2 beats (12ns) = 140ns.
	if missT != 140*sim.Nanosecond {
		t.Errorf("miss latency = %v, want 140ns", missT)
	}
	if hitT != sim.Nanosecond {
		t.Errorf("hit latency = %v, want 1ns", hitT)
	}
	if got := c.StateOf(0x1000); got != Exclusive {
		t.Errorf("state after lone read = %v, want E", got)
	}
}

func TestWriteAllocatesModified(t *testing.T) {
	r := newRig(t, 1)
	c := r.caches[0]
	r.runProc(t, func(p *sim.Process) {
		c.write(p, 0x2000, 8)
	})
	if got := c.StateOf(0x2000); got != Modified {
		t.Fatalf("state after write miss = %v, want M", got)
	}
}

func TestSharedUpgrade(t *testing.T) {
	r := newRig(t, 2)
	c0, c1 := r.caches[0], r.caches[1]
	r.runProc(t, func(p *sim.Process) {
		c0.read(p, 0x3000, 8)
		c1.read(p, 0x3000, 8) // c0 E -> S, supplies cache-to-cache
		if c0.StateOf(0x3000) != Shared || c1.StateOf(0x3000) != Shared {
			t.Errorf("states after 2 reads: %v/%v, want S/S", c0.StateOf(0x3000), c1.StateOf(0x3000))
		}
		c0.write(p, 0x3000, 8) // upgrade
		if c0.StateOf(0x3000) != Modified {
			t.Errorf("c0 after upgrade = %v, want M", c0.StateOf(0x3000))
		}
		if c1.StateOf(0x3000) != Invalid {
			t.Errorf("c1 after c0 upgrade = %v, want I", c1.StateOf(0x3000))
		}
	})
}

func TestCacheToCacheSupply(t *testing.T) {
	r := newRig(t, 2)
	c0, c1 := r.caches[0], r.caches[1]
	var supplied sim.Time
	r.runProc(t, func(p *sim.Process) {
		c0.write(p, 0x4000, 8) // c0 M
		start := p.Now()
		c1.read(p, 0x4000, 8)
		supplied = p.Now() - start
	})
	if c0.StateOf(0x4000) != Owned {
		t.Errorf("c0 after remote read of M = %v, want O", c0.StateOf(0x4000))
	}
	if c1.StateOf(0x4000) != Shared {
		t.Errorf("c1 = %v, want S", c1.StateOf(0x4000))
	}
	// Cache supply (24ns) is faster than DRAM (120ns):
	// 8 + 24 + 12 = 44ns.
	if supplied != 44*sim.Nanosecond {
		t.Errorf("cache-to-cache read took %v, want 44ns", supplied)
	}
	if r.node.CacheToCache != 1 {
		t.Errorf("CacheToCache counter = %d, want 1", r.node.CacheToCache)
	}
}

func TestGetXInvalidatesAndSupplies(t *testing.T) {
	r := newRig(t, 2)
	c0, c1 := r.caches[0], r.caches[1]
	r.runProc(t, func(p *sim.Process) {
		c0.write(p, 0x5000, 8)
		c1.write(p, 0x5000, 8)
	})
	if c0.StateOf(0x5000) != Invalid {
		t.Errorf("c0 = %v, want I", c0.StateOf(0x5000))
	}
	if c1.StateOf(0x5000) != Modified {
		t.Errorf("c1 = %v, want M", c1.StateOf(0x5000))
	}
}

func TestOnInvalidateFires(t *testing.T) {
	r := newRig(t, 2)
	c0, c1 := r.caches[0], r.caches[1]
	var invalidated []membus.Addr
	c1.OnInvalidate = func(b membus.Addr) { invalidated = append(invalidated, b) }
	r.runProc(t, func(p *sim.Process) {
		c1.read(p, 0x7000, 8)
		c0.write(p, 0x7000, 8)
	})
	if len(invalidated) != 1 || invalidated[0] != 0x7000 {
		t.Fatalf("OnInvalidate got %v, want [0x7000]", invalidated)
	}
}

func TestRangeAccessSpansBlocks(t *testing.T) {
	r := newRig(t, 1)
	c := r.caches[0]
	r.runProc(t, func(p *sim.Process) {
		c.write(p, 0x8020, 130) // touches blocks 0x8000, 0x8040, 0x8080
	})
	if c.Misses != 3 {
		t.Fatalf("misses = %d, want 3", c.Misses)
	}
}

func TestFlushWritesBackDirty(t *testing.T) {
	r := newRig(t, 1)
	c := r.caches[0]
	r.runProc(t, func(p *sim.Process) {
		c.write(p, 0x9000, 8)
		c.flush(p, 0x9000)
	})
	if r.mem.Writes != 1 {
		t.Fatalf("mem writes = %d, want 1", r.mem.Writes)
	}
	if c.StateOf(0x9000) != Invalid {
		t.Fatal("block still valid after flush")
	}
}

// Property: under any random sequence of reads/writes by multiple caches,
// at most one cache holds a block in a dirty or exclusive state, and dirty
// data is never silently dropped (every transition out of M/O goes through
// a writeback or a cache-to-cache supply).
func TestCoherenceInvariants(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		if len(opsRaw) > 200 {
			opsRaw = opsRaw[:200]
		}
		r := newRig(t, 3)
		rng := rand.New(rand.NewSource(seed))
		blocks := []membus.Addr{0x0, 0x40, 0x80, 0x10000, 0x10040}
		ok := true
		r.runProc(t, func(p *sim.Process) {
			for _, op := range opsRaw {
				ci := int(op) % len(r.caches)
				bi := int(op/4) % len(blocks)
				write := rng.Intn(2) == 0
				if write {
					r.caches[ci].write(p, blocks[bi], 8)
				} else {
					r.caches[ci].read(p, blocks[bi], 8)
				}
				// Invariant: at most one M/E/O holder per block; if any cache
				// is M or E, no other cache holds the block at all.
				for _, b := range blocks {
					owners, holders := 0, 0
					exclusiveLike := 0
					for _, c := range r.caches {
						s := c.StateOf(b)
						if s.Valid() {
							holders++
						}
						if s == Modified || s == Owned || s == Exclusive {
							owners++
						}
						if s == Modified || s == Exclusive {
							exclusiveLike++
						}
					}
					if owners > 1 {
						ok = false
					}
					if exclusiveLike == 1 && holders > 1 {
						ok = false
					}
				}
				if !ok {
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBusUncachedAccessTiming(t *testing.T) {
	r := newRig(t, 0)
	dev := mainmem.New("ni", 60*sim.Nanosecond, r.eng)
	r.bus.MapRange(1<<30, 1<<31, dev)
	var readT, writeT sim.Time
	r.runProc(t, func(p *sim.Process) {
		start := p.Now()
		r.bus.Access(p, membus.UncachedRead, 1<<30, 8)
		readT = p.Now() - start
		start = p.Now()
		r.bus.Access(p, membus.UncachedWrite, 1<<30, 8)
		writeT = p.Now() - start
	})
	// Read: 8ns addr + 60ns device + 8ns turn+1 beat = 76ns.
	if readT != 76*sim.Nanosecond {
		t.Errorf("uncached read = %v, want 76ns", readT)
	}
	// Write: 8ns addr + 8ns turn+1 beat = 16ns (posted).
	if writeT != 16*sim.Nanosecond {
		t.Errorf("uncached write = %v, want 16ns", writeT)
	}
	if dev.Reads != 1 || dev.Writes != 1 {
		t.Errorf("device saw reads=%d writes=%d, want 1/1", dev.Reads, dev.Writes)
	}
}

func TestBusContentionSerializes(t *testing.T) {
	r := newRig(t, 0)
	dev := mainmem.New("ni", 0, r.eng)
	r.bus.MapRange(1<<30, 1<<31, dev)
	finish := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		r.eng.Spawn("w", func(p *sim.Process) {
			r.bus.Access(p, membus.UncachedWrite, 1<<30, 8)
			finish[i] = p.Now()
		})
	}
	r.eng.Run()
	if finish[0] == finish[1] {
		t.Fatalf("two writes completed simultaneously at %v; bus not serializing", finish[0])
	}
}

func TestHomeRoutingPrecedence(t *testing.T) {
	r := newRig(t, 0)
	dev := mainmem.New("ni", 60*sim.Nanosecond, r.eng)
	r.bus.MapRange(0x100000, 0x200000, dev) // overlays part of DRAM
	if got := r.bus.HomeOf(0x100040); got != dev {
		t.Fatalf("HomeOf overlaid range = %v, want NI", got.TargetName())
	}
	if got := r.bus.HomeOf(0x90); got != r.mem {
		t.Fatalf("HomeOf DRAM range = %v, want dram", got.TargetName())
	}
}

func TestMemWatch(t *testing.T) {
	r := newRig(t, 1)
	log := r.logWritebacks(0x6000, 0x7000)
	r.runProc(t, func(p *sim.Process) {
		c := r.caches[0]
		c.write(p, 0x6000, 8)
		c.flush(p, 0x6000) // writeback hits the watcher
		c.read(p, 0x500, 8)
	})
	if seen := log.addrs; len(seen) != 1 || seen[0] != 0x6000 {
		t.Fatalf("watcher saw %v, want [0x6000]", seen)
	}
}

// A block whose page of the tag store was never installed into reads as
// Invalid and snoops as a miss, without allocating anything: on a fresh
// cache, which has no page directory yet, and beside an installed page.
func TestAbsentPageReadsInvalid(t *testing.T) {
	r := newRig(t, 1)
	c := r.caches[0]
	const a = 0x2_0000 + 0x140                     // page 0 of the tag store
	const other = 3 * pageLines * membus.BlockSize // page 3
	getx := &membus.Transaction{Kind: membus.GetX, Addr: a}
	check := func(where string) {
		t.Helper()
		if got := c.StateOf(a); got != Invalid {
			t.Errorf("%s: StateOf on absent page = %v, want I", where, got)
		}
		if got := c.Snoop(getx); got != (membus.SnoopReply{}) {
			t.Errorf("%s: Snoop on absent page = %+v, want empty reply", where, got)
		}
		if n := testing.AllocsPerRun(100, func() { c.StateOf(a) }); n != 0 {
			t.Errorf("%s: StateOf allocs/op = %v, want 0", where, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.Snoop(getx) }); n != 0 {
			t.Errorf("%s: Snoop allocs/op = %v, want 0", where, n)
		}
	}
	check("fresh cache")
	if c.pages != nil {
		t.Fatal("page directory allocated by reads and snoops alone")
	}
	r.runProc(t, func(p *sim.Process) { c.read(p, other, 8) })
	check("beside an installed page")
	if c.pages[0] != nil {
		t.Error("page 0 allocated by reads and snoops alone")
	}
}

// The packed line holds every State alongside the highest block address of
// DRAM ([0, 1 GB), as in the machine's address map) without either field
// disturbing the other.
func TestLinePackRoundTrip(t *testing.T) {
	const top = membus.Addr(1<<30) - membus.BlockSize
	for s := Invalid; s <= Modified; s++ {
		for _, block := range []membus.Addr{0, membus.BlockSize, top} {
			var l line
			l.set(block, s)
			if l.block() != block || l.state() != s {
				t.Errorf("set(%#x, %v) reads back (%#x, %v)", block, s, l.block(), l.state())
			}
			if want := s.Valid(); l.holds(block) != want {
				t.Errorf("set(%#x, %v).holds = %v, want %v", block, s, !want, want)
			}
		}
	}
}

// A conflict miss between two blocks that share an index writes the dirty
// victim back to its own address, whether the victim was the first line
// installed in its page of the tag store or the page already held others.
func TestConflictEvictionWritesBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first bool // victim is the page's first install
	}{{"first install in page", true}, {"populated page", false}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1)
			c := r.caches[0]
			// 64 KB cache => conflicting addresses differ by 1<<16.
			const victim, other = 0x100, 0x100 + 1<<16
			log := r.logWritebacks(0, 1<<30)
			r.runProc(t, func(p *sim.Process) {
				if !tc.first {
					c.read(p, victim+membus.BlockSize, 8) // same page, next index
				}
				c.write(p, victim, 8)
				c.read(p, other, 8)
			})
			if written := log.addrs; c.Writebacks != 1 || len(written) != 1 || written[0] != victim {
				t.Fatalf("writebacks = %d to %#x, want 1 to %#x", c.Writebacks, written, membus.Addr(victim))
			}
			if c.StateOf(victim) != Invalid || c.StateOf(other) != Exclusive {
				t.Fatalf("after conflict: victim %v, other %v; want I, E", c.StateOf(victim), c.StateOf(other))
			}
		})
	}
}

// Installing a line allocates its own page of the tag store and no other.
// The page count comes from the geometry: the directory itself is
// allocated only on a cache's first install, so a fresh cache holds no
// tag store at all.
func TestInstallAllocatesOnlyItsPage(t *testing.T) {
	const n = rigCacheBytes / membus.BlockSize / pageLines
	for k := 0; k < n; k++ {
		r := newRig(t, 1)
		c := r.caches[0]
		if c.pages != nil {
			t.Fatalf("fresh cache holds a tag store of %d pages, want none", len(c.pages))
		}
		a := membus.Addr(k*pageLines*membus.BlockSize + 5*membus.BlockSize)
		r.runProc(t, func(p *sim.Process) { c.read(p, a, 8) })
		if len(c.pages) != n {
			t.Fatalf("install into page %d: directory holds %d pages, want %d", k, len(c.pages), n)
		}
		for j, pg := range c.pages {
			if (pg != nil) != (j == k) {
				t.Errorf("install into page %d: page %d allocated = %v", k, j, pg != nil)
			}
		}
	}
}
