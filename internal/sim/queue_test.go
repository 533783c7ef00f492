package sim

import (
	"math/rand"
	"testing"
)

// nearHorizon is the span the near tier covers ahead of the clock's bucket.
const nearHorizon = Time(nearBuckets) << bucketShift

// refEvent is the reference model's copy of one scheduled event: its full
// key, the id it fires with, and its Timer when it was armed as one.
type refEvent struct {
	at, schedAt      Time
	ord, ordSeq, seq uint64
	id               uint64
	tm               Timer
}

func refBefore(a, b *refEvent) bool {
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

// queueModel drives an engine with a seeded random mix of schedules,
// cancellations and clock advances, and checks every firing against a
// reference: the pending event that is least by the full key.
type queueModel struct {
	t       *testing.T
	e       *Engine
	rng     *rand.Rand
	seq     uint64 // mirrors the engine's schedule counter
	nextID  uint64
	pending []*refEvent
	dead    []Timer // handles on fired or stopped timers
	fired   int
}

func modelFire(recv any, arg uint64) { recv.(*queueModel).fire(arg) }

func (m *queueModel) minIndex() int {
	best := -1
	for i, r := range m.pending {
		if best < 0 || refBefore(r, m.pending[best]) {
			best = i
		}
	}
	return best
}

func (m *queueModel) take(i int) *refEvent {
	r := m.pending[i]
	last := len(m.pending) - 1
	m.pending[i] = m.pending[last]
	m.pending = m.pending[:last]
	if r.tm != (Timer{}) && len(m.dead) < 64 {
		m.dead = append(m.dead, r.tm)
	}
	return r
}

func (m *queueModel) fire(id uint64) {
	i := m.minIndex()
	if i < 0 {
		m.t.Fatalf("event %d fired with nothing pending in the reference", id)
	}
	r := m.pending[i]
	if r.id != id {
		m.t.Fatalf("fired event %d at %v, reference pops event %d at %v (key %v/%d/%d/%d)",
			id, m.e.Now(), r.id, r.at, r.schedAt, r.ord, r.ordSeq, r.seq)
	}
	if m.e.Now() != r.at {
		m.t.Fatalf("event %d fired at %v, scheduled for %v", id, m.e.Now(), r.at)
	}
	m.take(i)
	m.fired++
	// A handler's own schedules land relative to the clock it advanced.
	if m.rng.Intn(4) == 0 {
		m.schedule()
	}
}

// pickAt draws an event time: mostly near, some far, some within a bucket
// of the horizon's edge, and some tying with an already pending event.
func (m *queueModel) pickAt() Time {
	now := m.e.Now()
	switch c := m.rng.Intn(10); {
	case c < 5:
		return now + Time(m.rng.Int63n(int64(nearHorizon)))
	case c < 7:
		return now + nearHorizon + Time(m.rng.Int63n(int64(4*nearHorizon)))
	case c < 9:
		edge := (now>>bucketShift + nearBuckets) << bucketShift
		at := edge + Time(m.rng.Intn(3)-1)<<bucketShift + Time(m.rng.Intn(3)-1)
		return max(at, now)
	default:
		if len(m.pending) == 0 {
			return now
		}
		return m.pending[m.rng.Intn(len(m.pending))].at
	}
}

// schedule adds one event through a randomly chosen entry point.
func (m *queueModel) schedule() {
	e, now, at := m.e, m.e.Now(), m.pickAt()
	m.nextID++
	m.seq++
	r := &refEvent{at: at, schedAt: now, seq: m.seq, id: m.nextID}
	switch m.rng.Intn(4) {
	case 0:
		e.AtEvent(at, modelFire, m, r.id)
	case 1:
		r.tm = e.AtTimer(at, modelFire, m, r.id)
	case 2:
		src, postSeq := m.rng.Intn(4), uint64(m.rng.Intn(3))
		r.ord, r.ordSeq = uint64(src)+1, postSeq
		e.AtEventPosted(at, src, postSeq, modelFire, m, r.id)
	case 3:
		src, postSeq := m.rng.Intn(4), uint64(m.rng.Intn(3))
		r.schedAt = max(0, now-Time(m.rng.Int63n(int64(nearHorizon)))) + Time(m.rng.Intn(2))*(at-now)
		r.ord, r.ordSeq = uint64(src)+1, postSeq
		e.AtEventStamped(at, r.schedAt, src, postSeq, modelFire, m, r.id)
	}
	m.pending = append(m.pending, r)
}

// randomTimer returns the index of a random pending timer, or -1.
func (m *queueModel) randomTimer() int {
	for range 8 {
		if len(m.pending) == 0 {
			return -1
		}
		if i := m.rng.Intn(len(m.pending)); m.pending[i].tm != (Timer{}) {
			return i
		}
	}
	return -1
}

func (m *queueModel) step() {
	e := m.e
	switch op := m.rng.Intn(20); {
	case op < 9:
		m.schedule()
	case op < 11: // stop
		if i := m.randomTimer(); i >= 0 {
			tm := m.pending[i].tm
			m.take(i)
			if !tm.Stop() {
				m.t.Fatal("Stop on a pending timer reported false")
			}
		}
	case op < 12: // stop and re-arm at the same time: a fresh seq
		if i := m.randomTimer(); i >= 0 {
			r := m.take(i)
			r.tm.Stop()
			m.nextID++
			m.seq++
			re := &refEvent{at: r.at, schedAt: e.Now(), seq: m.seq, id: m.nextID}
			re.tm = e.AtTimer(re.at, modelFire, m, re.id)
			m.pending = append(m.pending, re)
		}
	case op < 15:
		end := e.Now() + Time(m.rng.Int63n(int64(2*nearHorizon)))
		e.RunUntil(end)
		m.checkAdvanced(end, func(at Time) bool { return at <= end })
	case op < 17:
		end := e.Now() + Time(m.rng.Int63n(int64(2*nearHorizon)))
		e.RunWindow(end)
		m.checkAdvanced(end, func(at Time) bool { return at < end })
	default:
		for range m.rng.Intn(8) {
			e.Step()
		}
	}
	if e.Pending() != len(m.pending) {
		m.t.Fatalf("engine holds %d events, reference %d", e.Pending(), len(m.pending))
	}
	for _, r := range m.pending {
		if r.tm != (Timer{}) && !r.tm.Active() {
			m.t.Fatalf("pending timer for event %d reports inactive", r.id)
		}
	}
	for _, tm := range m.dead {
		if tm.Active() || tm.Stop() {
			m.t.Fatal("a fired or stopped timer reports active or stops again")
		}
	}
	if i := m.minIndex(); i >= 0 {
		if at, ok := e.NextEventAt(); !ok || at != m.pending[i].at {
			m.t.Fatalf("NextEventAt = %v, %v; reference %v", at, ok, m.pending[i].at)
		}
	}
}

// checkAdvanced verifies that a RunUntil/RunWindow to end left nothing
// pending that was due, and moved the clock to end.
func (m *queueModel) checkAdvanced(end Time, due func(Time) bool) {
	for _, r := range m.pending {
		if due(r.at) {
			m.t.Fatalf("event %d at %v still pending after advancing to %v", r.id, r.at, end)
		}
	}
	if m.e.Now() < end {
		m.t.Fatalf("clock %v after advancing to %v", m.e.Now(), end)
	}
}

// TestQueueMatchesReferenceOrder is the differential order test for the
// two-tier queue: near and far events, events a bucket either side of the
// horizon, same-time ties across AtEvent/AtTimer/AtEventPosted/
// AtEventStamped, cancellation and re-arming in both tiers, and the ring
// wrapping as RunUntil/RunWindow advance the clock. Every firing must be
// the least pending event by the full key.
func TestQueueMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		m := &queueModel{t: t, e: NewEngine(), rng: rand.New(rand.NewSource(seed))}
		for range 3000 {
			m.step()
		}
		m.e.Run()
		if len(m.pending) != 0 || m.e.Pending() != 0 {
			t.Fatalf("seed %d: %d reference and %d engine events left after Run", seed, len(m.pending), m.e.Pending())
		}
		if m.e.Now() < 20*nearHorizon {
			t.Fatalf("seed %d: clock reached only %v; the ring never wrapped", seed, m.e.Now())
		}
		if m.fired < 1000 {
			t.Fatalf("seed %d: only %d events fired", seed, m.fired)
		}
	}
}
