package membus

import (
	"testing"
	"testing/quick"

	"nisim/internal/sim"
	"nisim/internal/stats"
)

// fixedTarget is a Target with constant latency and an access log.
type fixedTarget struct {
	name     string
	latency  sim.Time
	accesses []Kind
}

func (f *fixedTarget) TargetName() string { return f.name }
func (f *fixedTarget) HomeLatency(t *Transaction, at sim.Time) sim.Time {
	f.accesses = append(f.accesses, t.Kind)
	return f.latency
}

// inertSnooper records what it observes and never owns anything.
type inertSnooper struct{ seen []Kind }

func (s *inertSnooper) SnooperName() string { return "inert" }
func (s *inertSnooper) Snoop(t *Transaction) SnoopReply {
	s.seen = append(s.seen, t.Kind)
	return SnoopReply{}
}

// ownerSnooper claims ownership of one block.
type ownerSnooper struct {
	block  Addr
	supply sim.Time
	hits   int
}

func (s *ownerSnooper) SnooperName() string { return "owner" }
func (s *ownerSnooper) Snoop(t *Transaction) SnoopReply {
	if BlockOf(t.Addr) == s.block && t.Kind == GetS {
		s.hits++
		return SnoopReply{Owner: true, Shared: true, SupplyLatency: s.supply}
	}
	return SnoopReply{}
}

// doneLog records the simulated time and snoop flags of each completion
// hook it is passed to as recv.
type doneLog struct {
	eng   *sim.Engine
	at    []sim.Time
	flags []uint64
}

func logDone(recv any, flags uint64) {
	l := recv.(*doneLog)
	l.at = append(l.at, l.eng.Now())
	l.flags = append(l.flags, flags)
}

func newBus() (*sim.Engine, *Bus, *fixedTarget) {
	eng := sim.NewEngine()
	bus := New(eng, DefaultTiming(), stats.NewNode())
	home := &fixedTarget{name: "home", latency: 120 * sim.Nanosecond}
	bus.MapRange(0, 1<<32, home)
	return eng, bus, home
}

func TestKindStringsAreDistinct(t *testing.T) {
	kinds := []Kind{GetS, GetX, Upgrade, Writeback, UncachedRead, UncachedWrite, BlockRead, BlockWrite, Invalidate, WriteInvalidate}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
	if s := Kind(len(kinds)).String(); s != "Kind(10)" {
		t.Fatalf("out-of-range kind prints %q, want Kind(10)", s)
	}
}

func TestReadFromHomeTiming(t *testing.T) {
	eng, bus, home := newBus()
	done := &doneLog{eng: eng}
	bus.Issue(nil, GetS, 0x100, 0, logDone, done)
	eng.Run()
	// addr 8ns + 120ns + turnaround+2 beats 12ns = 140ns
	if len(done.at) != 1 || done.at[0] != 140*sim.Nanosecond {
		t.Fatalf("GetS completed at %v, want [140ns]", done.at)
	}
	if len(home.accesses) != 1 {
		t.Fatalf("home saw %d accesses, want 1", len(home.accesses))
	}
}

func TestOwnerSuppliesInsteadOfHome(t *testing.T) {
	eng, bus, home := newBus()
	own := &ownerSnooper{block: 0x200, supply: 24 * sim.Nanosecond}
	bus.AttachSnooper(own)
	done := &doneLog{eng: eng}
	bus.Issue(nil, GetS, 0x200, 0, logDone, done)
	eng.Run()
	if len(done.flags) != 1 || done.flags[0] != DoneShared|DoneFromCache {
		t.Fatalf("owner did not supply: completion flags %v, want [%d]", done.flags, DoneShared|DoneFromCache)
	}
	if done.at[0] != 44*sim.Nanosecond {
		t.Fatalf("cache-to-cache GetS at %v, want 44ns", done.at[0])
	}
	if len(home.accesses) != 0 {
		t.Fatal("home accessed despite cache-to-cache supply")
	}
}

func TestUpgradeAndInvalidateSkipHome(t *testing.T) {
	eng, bus, home := newBus()
	sn := &inertSnooper{}
	bus.AttachSnooper(sn)
	done := &doneLog{eng: eng}
	bus.Issue(nil, Upgrade, 0x40, 0, logDone, done)
	bus.Issue(nil, Invalidate, 0x80, 0, logDone, done)
	eng.Run()
	// Each completes at the end of its own 8ns address phase.
	if len(done.at) != 2 || done.at[0] != 8*sim.Nanosecond || done.at[1] != 16*sim.Nanosecond {
		t.Fatalf("address-only transactions completed at %v, want [8ns 16ns]", done.at)
	}
	if len(home.accesses) != 0 {
		t.Fatalf("home touched by address-only transactions: %v", home.accesses)
	}
	if len(sn.seen) != 2 {
		t.Fatalf("snooper saw %d transactions, want 2", len(sn.seen))
	}
}

func TestWriteInvalidateReachesHomeAndSnoopers(t *testing.T) {
	eng, bus, home := newBus()
	sn := &inertSnooper{}
	bus.AttachSnooper(sn)
	bus.Issue(nil, WriteInvalidate, 0x40, 0, nil, nil)
	eng.Run()
	if len(home.accesses) != 1 || home.accesses[0] != WriteInvalidate {
		t.Fatalf("home accesses = %v", home.accesses)
	}
	if len(sn.seen) != 1 {
		t.Fatal("snoopers did not observe WriteInvalidate")
	}
}

func TestUncachedBypassesSnoopers(t *testing.T) {
	eng, bus, _ := newBus()
	sn := &inertSnooper{}
	bus.AttachSnooper(sn)
	bus.Issue(nil, UncachedRead, 0x40, 8, nil, nil)
	bus.Issue(nil, UncachedWrite, 0x40, 8, nil, nil)
	bus.Issue(nil, BlockRead, 0x40, 0, nil, nil)
	bus.Issue(nil, BlockWrite, 0x40, 0, nil, nil)
	eng.Run()
	if len(sn.seen) != 0 {
		t.Fatalf("uncached/block transactions were snooped: %v", sn.seen)
	}
}

func TestRequesterNotSnooped(t *testing.T) {
	eng, bus, _ := newBus()
	sn := &inertSnooper{}
	bus.AttachSnooper(sn)
	bus.Issue(sn, GetS, 0x40, 0, nil, nil)
	eng.Run()
	if len(sn.seen) != 0 {
		t.Fatal("requester snooped its own transaction")
	}
}

func TestTwoOwnersPanics(t *testing.T) {
	eng, bus, _ := newBus()
	bus.AttachSnooper(&ownerSnooper{block: 0x40})
	bus.AttachSnooper(&ownerSnooper{block: 0x40})
	defer func() {
		if recover() == nil {
			t.Fatal("two owners did not panic")
		}
	}()
	bus.Issue(nil, GetS, 0x40, 0, nil, nil)
	eng.Run()
}

func TestUnmappedAddressPanics(t *testing.T) {
	eng := sim.NewEngine()
	bus := New(eng, DefaultTiming(), nil)
	bus.MapRange(0, 0x1000, &fixedTarget{name: "small"})
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped address did not panic")
		}
	}()
	bus.Issue(nil, GetS, 0x2000, 0, nil, nil)
	eng.Run()
}

func TestBlockOf(t *testing.T) {
	if BlockOf(0x7f) != 0x40 {
		t.Fatalf("BlockOf(0x7f) = %#x", BlockOf(0x7f))
	}
	if BlockOf(0x40) != 0x40 {
		t.Fatalf("BlockOf(0x40) = %#x", BlockOf(0x40))
	}
}

// Property: for any set of concurrent transactions, completions never
// overlap in the data-phase sense — the bus serializes, so total completion
// time grows at least linearly with the transaction count.
func TestBusSerializationProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%20 + 2
		eng, bus, _ := newBus()
		done := &doneLog{eng: eng}
		for i := 0; i < n; i++ {
			bus.Issue(nil, UncachedWrite, Addr(i)*8, 8, logDone, done)
		}
		eng.Run()
		// Each uncached write occupies >= 16ns of bus time.
		return len(done.at) == n && done.at[n-1] >= sim.Time(n)*16*sim.Nanosecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion hooks fire in a valid order — a transaction issued
// strictly after another completes cannot finish before it (FIFO address
// phases with equal service times).
func TestFIFOCompletionOrder(t *testing.T) {
	eng, bus, _ := newBus()
	var order []int
	marks := make([]orderMark, 10)
	for i := range marks {
		marks[i] = orderMark{order: &order, i: i}
		bus.Issue(nil, GetS, Addr(i)*64, 0, markDone, &marks[i])
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v", order)
		}
	}
}

// orderMark is a completion hook's recv that appends its index to order.
type orderMark struct {
	order *[]int
	i     int
}

func markDone(recv any, _ uint64) {
	m := recv.(*orderMark)
	*m.order = append(*m.order, m.i)
}

// TestRecordsAreRecycled checks the pool: once warm, issuing transactions
// with a completion hook allocates nothing.
func TestRecordsAreRecycled(t *testing.T) {
	eng, bus, _ := newBus()
	done := &doneLog{eng: eng, at: make([]sim.Time, 0, 1024)}
	round := func() {
		done.at = done.at[:0]
		bus.Issue(nil, GetS, 0x40, 0, logDone, done)
		bus.Issue(nil, UncachedWrite, 0x80, 8, logDone, done)
		eng.Run()
		if len(done.at) != 2 {
			t.Fatalf("%d completions, want 2", len(done.at))
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("Issue round allocates %.1f per run, want 0", n)
	}
}
