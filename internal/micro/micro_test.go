package micro

import (
	"testing"

	"nisim/internal/nic"
	"nisim/internal/sim"
	"nisim/internal/sweep"
)

// These tests assert the paper's qualitative Table 5 claims (§6.1). They use
// reduced iteration counts; the full-scale numbers live in EXPERIMENTS.md.

func rtt(t *testing.T, k nic.Kind, payload int) sim.Time {
	t.Helper()
	return RoundTrip(k, 8, payload, 550, 25)
}

func bw(t *testing.T, k nic.Kind, payload int) float64 {
	t.Helper()
	n := 120
	if payload >= 4096 {
		n = 30
	}
	return Bandwidth(k, 8, payload, n)
}

// TestCNI32QmHasBestLatency checks the Table 5a latency claim as far as
// it holds here: CNI_32Qm has the lowest round trip at 8 and 64 B, and at
// 256 B beats every NI but CNI_512Q. The paper has CNI_32Qm best at every
// size.
func TestCNI32QmHasBestLatency(t *testing.T) {
	for _, payload := range []int{8, 64, 256} {
		best := rtt(t, nic.CNI32Qm, payload)
		for _, k := range nic.PaperSeven() {
			if k == nic.CNI32Qm || k == nic.CNI512Q && payload == 256 {
				continue
			}
			if other := rtt(t, k, payload); other < best {
				t.Errorf("%v (%.2fus) beats CNI_32Qm (%.2fus) at %dB", k, other.Microseconds(), best.Microseconds(), payload)
			}
		}
	}
}

func TestUdmaWorseThanCM5OnlyBelowBreakeven(t *testing.T) {
	// §6.1.1: the Udma-based NI is worse than the CM-5-like NI for small
	// payloads (initiation overhead) but substantially better for large.
	if u, c := rtt(t, nic.UDMA, 8), rtt(t, nic.CM5, 8); u <= c {
		t.Errorf("UDMA (%.2f) not worse than CM-5 (%.2f) at 8B", u.Microseconds(), c.Microseconds())
	}
	if u, c := rtt(t, nic.UDMA, 256), rtt(t, nic.CM5, 256); u >= c {
		t.Errorf("UDMA (%.2f) not better than CM-5 (%.2f) at 256B", u.Microseconds(), c.Microseconds())
	}
}

func TestStarTJRvsAP3000Crossover(t *testing.T) {
	// §6.1.1: the Start-JR-like NI wins below the 64-byte block-buffer
	// size and loses beyond it.
	if s, a := rtt(t, nic.StarTJR, 8), rtt(t, nic.AP3000, 8); s >= a {
		t.Errorf("StarT-JR (%.2f) not better than AP3000 (%.2f) at 8B", s.Microseconds(), a.Microseconds())
	}
	if s, a := rtt(t, nic.StarTJR, 256), rtt(t, nic.AP3000, 256); s <= a {
		t.Errorf("StarT-JR (%.2f) not worse than AP3000 (%.2f) at 256B", s.Microseconds(), a.Microseconds())
	}
}

func TestMemoryChannelSendSideLikeStarTJR(t *testing.T) {
	// §6.1.1: the Memory Channel-like NI's round trip is almost the same
	// as the Start-JR-like NI's (within 15%).
	mc, sj := rtt(t, nic.MemoryChannel, 8), rtt(t, nic.StarTJR, 8)
	ratio := float64(mc) / float64(sj)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("MC/StarT-JR ratio %.2f at 8B, want ~1", ratio)
	}
}

func TestCNI512QBeatsStarTJRAtLargeSizes(t *testing.T) {
	// §6.1.1: CNI_512Q outperforms the Start-JR-like NI (prefetch and
	// direct NI-to-cache steering), clearest beyond one block.
	if q, s := rtt(t, nic.CNI512Q, 256), rtt(t, nic.StarTJR, 256); q >= s {
		t.Errorf("CNI_512Q (%.2f) not better than StarT-JR (%.2f) at 256B", q.Microseconds(), s.Microseconds())
	}
}

func TestCM5HasWorstBandwidth(t *testing.T) {
	worst := bw(t, nic.CM5, 4096)
	for _, k := range []nic.Kind{nic.AP3000, nic.StarTJR, nic.MemoryChannel, nic.CNI512Q, nic.CNI32Qm} {
		if other := bw(t, k, 4096); other < worst {
			t.Errorf("%v (%.0f MB/s) below CM-5 (%.0f MB/s) at 4096B", k, other, worst)
		}
	}
}

func TestAP3000BandwidthBeatsStarTJR(t *testing.T) {
	// §6.1.2: the AP3000-like NI offers significantly greater bandwidth
	// than the Start-JR-like NI (fast NI SRAM vs. main memory).
	if a, s := bw(t, nic.AP3000, 4096), bw(t, nic.StarTJR, 4096); a <= s {
		t.Errorf("AP3000 (%.0f) not above StarT-JR (%.0f) at 4096B", a, s)
	}
}

func TestThrottlingRaisesCNI32QmBandwidth(t *testing.T) {
	// §6.1.2: throttling the sender lets the receiver consume from the
	// fast NI cache, raising CNI_32Qm's large-message bandwidth above the
	// unthrottled case — and above every other NI.
	un, th := bw(t, nic.CNI32Qm, 4096), bw(t, nic.CNI32QmThrottle, 4096)
	if th <= un {
		t.Errorf("throttled bandwidth %.0f not above unthrottled %.0f", th, un)
	}
	for _, k := range nic.PaperSeven() {
		if other := bw(t, k, 4096); other > th {
			t.Errorf("%v (%.0f MB/s) above throttled CNI_32Qm (%.0f MB/s)", k, other, th)
		}
	}
}

func TestLatencyMonotoneInPayload(t *testing.T) {
	for _, k := range nic.PaperSeven() {
		prev := sim.Time(0)
		for _, p := range LatencyPayloads {
			v := rtt(t, k, p)
			if v <= prev {
				t.Errorf("%v: rtt not increasing with payload (%v at %dB after %v)", k, v, p, prev)
			}
			prev = v
		}
	}
}

func TestBandwidthIncreasesWithPayload(t *testing.T) {
	for _, k := range nic.PaperSeven() {
		small, large := bw(t, k, 8), bw(t, k, 4096)
		if large <= small {
			t.Errorf("%v: bandwidth %.0f at 4096B not above %.0f at 8B", k, large, small)
		}
	}
}

func TestTable5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	s := StandardSpec(true)
	rows := s.Rows(sweep.RunSerial(s.Jobs()))
	if len(rows) != 8 {
		t.Fatalf("Table5 rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		for _, p := range BandwidthPayloads {
			if r.BandwidthMB[p] <= 0 {
				t.Errorf("%v: no bandwidth at %dB", r.Kind, p)
			}
		}
	}
}
