package msglayer

import "testing"

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

func TestMarkDoneRingEviction(t *testing.T) {
	for _, c := range []struct {
		name  string
		depth int
	}{
		{"eager", doneWindow},
		{"rendezvous", rdvDoneWindow},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := newDoneSet(c.depth)
			for i := 0; i < c.depth+16; i++ {
				d.add([2]uint64{3, uint64(i)})
			}
			if len(d.keys) != c.depth {
				t.Fatalf("done set holds %d entries, want exactly %d", len(d.keys), c.depth)
			}
			// The oldest 16 were evicted; the newest survive.
			for _, e := range []struct {
				seq  int
				want bool
			}{{0, false}, {15, false}, {16, true}, {c.depth + 15, true}} {
				if got := d.has([2]uint64{3, uint64(e.seq)}); got != e.want {
					t.Fatalf("entry %d present = %v, want %v", e.seq, got, e.want)
				}
			}
		})
	}
}
