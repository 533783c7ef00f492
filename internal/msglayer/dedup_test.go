package msglayer

import (
	"testing"

	"nisim/internal/sim"
)

func TestFragArgRoundTrip(t *testing.T) {
	for _, c := range []struct {
		idx, total int
		seq        uint64
	}{
		{0, 1, 0}, {1, 3, 7}, {65535, 65535, 1 << 23}, {12, 100, 0xFFFFFF},
	} {
		a := fragArg(c.idx, c.total, c.seq)
		if fragIdx(a) != c.idx || fragTotal(a) != c.total || fragSeq(a) != c.seq&0xFFFFFF {
			t.Fatalf("round trip %+v -> idx=%d total=%d seq=%d",
				c, fragIdx(a), fragTotal(a), fragSeq(a))
		}
	}
}

// TestMarkDoneRingEviction fills the one done set past its depth with keys
// of each protocol and checks that exactly the oldest are evicted.
func TestMarkDoneRingEviction(t *testing.T) {
	for _, c := range []struct {
		name string
		key  func(i int) msgKey
	}{
		{"eager", func(i int) msgKey { return eagerKey(3, uint64(i)) }},
		{"rendezvous", func(i int) msgKey { return rdvKey(3, uint32(i)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := newDoneSet(doneWindow)
			for i := 0; i < doneWindow+16; i++ {
				d.add(c.key(i))
			}
			if len(d.keys) != doneWindow {
				t.Fatalf("done set holds %d entries, want exactly %d", len(d.keys), doneWindow)
			}
			// The oldest 16 were evicted; the newest survive.
			for _, e := range []struct {
				seq  int
				want bool
			}{{0, false}, {15, false}, {16, true}, {doneWindow + 15, true}} {
				if got := d.has(c.key(e.seq)); got != e.want {
					t.Fatalf("entry %d present = %v, want %v", e.seq, got, e.want)
				}
			}
		})
	}
}

// TestDoneWindowEvictionEdge adds one key more than the done set's depth,
// from senders that alternate, and checks that exactly the first key is
// forgotten: the window is a global first-in, first-out one over both
// protocols' keys.
func TestDoneWindowEvictionEdge(t *testing.T) {
	key := func(i int) msgKey {
		if i%2 == 0 {
			return eagerKey(i%7, uint64(i))
		}
		return rdvKey(i%7, uint32(i))
	}
	d := newDoneSet(doneWindow)
	for i := 0; i < doneWindow+1; i++ {
		d.add(key(i))
	}
	if len(d.keys) != doneWindow {
		t.Fatalf("done set holds %d entries, want exactly %d", len(d.keys), doneWindow)
	}
	for i := 0; i < doneWindow+1; i++ {
		if got, want := d.has(key(i)), i != 0; got != want {
			t.Fatalf("key %d present = %v, want %v", i, got, want)
		}
	}
}

// TestMsgKeyInjective packs boundary inputs of both protocols into keys
// and checks that no two distinct (src, seq) or (src, xfer) pairs share
// one: the largest node id the packing holds, the largest eager sequence
// number, and the largest 16-bit and 32-bit transfer ids.
func TestMsgKeyInjective(t *testing.T) {
	const maxSrc = 1<<(64-keySrcShift) - 1
	type pair struct {
		rdv bool
		src int
		low uint64
	}
	seen := map[msgKey]pair{}
	for _, src := range []int{0, 1, 255, 256, maxSrc - 1, maxSrc} {
		for _, seq := range []uint64{0, 1, 0xFFFF, 0x10000, 0xFFFFFF} {
			p, k := pair{false, src, seq}, eagerKey(src, seq)
			if q, dup := seen[k]; dup {
				t.Fatalf("%+v and %+v share key %#x", p, q, uint64(k))
			}
			seen[k] = p
		}
		for _, xfer := range []uint32{0, 1, 0xFFFF, 0x10000, 0xFFFFFF, 0xFFFFFFFF} {
			p, k := pair{true, src, uint64(xfer)}, rdvKey(src, xfer)
			if q, dup := seen[k]; dup {
				t.Fatalf("%+v and %+v share key %#x", p, q, uint64(k))
			}
			seen[k] = p
		}
	}
	if got := uint64(rdvKey(maxSrc, 0xFFFFFFFF)); got != ^uint64(0) {
		t.Fatalf("largest rendezvous key = %#x, want every bit set", got)
	}
	if got := uint64(eagerKey(maxSrc, 0xFFFFFF)) >> keySrcShift; got != maxSrc {
		t.Fatalf("largest node id reads back as %d, want %d", got, maxSrc)
	}
}

// TestEagerAndRendezvousKeysDoNotCollide sends an eager message and a
// rendezvous transfer from one sender, in both orders, with equal eager
// sequence number and transfer id (both 1). They share the receiver's
// inbound table and done set, and both must deliver. A masked message
// never arrives, so the run is bounded in simulated time.
func TestEagerAndRendezvousKeysDoNotCollide(t *testing.T) {
	for _, sizes := range [][2]int{{100, 2000}, {2000, 100}} {
		eps, eng := twoEndpoints(t, Rendezvous)
		const h = 1
		got := map[int]int{}
		eps[1].Register(h, func(ep *Endpoint, m *Message) { got[m.PayloadLen]++ })
		eps[0].pr.Bind(eng.Spawn("sender", func(p *sim.Process) {
			eps[0].Send(1, h, sizes[0], 0)
			eps[0].Send(1, h, sizes[1], 0)
		}))
		poller(eps[1])
		eng.RunWhile(func() bool { return len(got) < 2 && eng.Now() < sim.Millisecond })
		eng.Drain()
		if got[100] != 1 || got[2000] != 1 {
			t.Fatalf("sizes %v: deliveries by size = %v, want one each", sizes, got)
		}
	}
}
