package netsim

import (
	"testing"

	"nisim/internal/sim"
	"nisim/internal/stats"
)

// oneSidedRig is a two-node network with node 1's one-sided hooks wired to
// counters. Data-path hooks (OnAccept) are installed too so a mis-routed
// frame fails loudly rather than panicking on a nil hook.
type oneSidedRig struct {
	eng      *sim.Engine
	nw       *Network
	puts     []*Message
	settled  []*Message
	accepted int
	st       [2]*stats.Node
}

func newOneSidedRig(t *testing.T, cfg Config) *oneSidedRig {
	t.Helper()
	r := &oneSidedRig{eng: sim.NewEngine()}
	r.nw = New(r.eng, cfg, 2, 2)
	for i := 0; i < 2; i++ {
		r.st[i] = stats.NewNode()
		ep := r.nw.Endpoint(i)
		ep.Stats = r.st[i]
		ep.OnAccept = func(m *Message) { r.accepted++; ep.ReleaseIn() }
	}
	recv := r.nw.Endpoint(1)
	recv.OnPut = func(m *Message) { r.puts = append(r.puts, m) }
	r.nw.Endpoint(0).OnSettled = func(m *Message) { r.settled = append(r.settled, m) }
	return r
}

// TestOneSidedPutBypassesBuffers pins the core Put contract on the lossless
// network: the frame lands in OnPut without consuming a flow-control buffer
// on either side, never touches the accept/bounce path, and counts toward
// the watchdog's delivered total.
func TestOneSidedPutBypassesBuffers(t *testing.T) {
	r := newOneSidedRig(t, DefaultConfig())
	send := r.nw.Endpoint(0)
	recv := r.nw.Endpoint(1)
	// An admission gate that refuses everything: one-sided traffic must not
	// consult it.
	recv.Admit = func(m *Message) AdmitDecision { return AdmitDrop }

	m := NewSized(0, 1, 0, 64)
	r.eng.AfterEvent(0, func(any, uint64) { send.Put(m) }, nil, 0)
	r.eng.Run()

	if len(r.puts) != 1 || r.puts[0] != m {
		t.Fatalf("OnPut saw %d frames, want the injected put", len(r.puts))
	}
	if !m.IsPut() {
		t.Error("delivered frame does not report IsPut")
	}
	if r.accepted != 0 {
		t.Errorf("put frame entered the two-sided accept path (%d accepts)", r.accepted)
	}
	if send.OutFree() != send.Buffers() || recv.InFree() != recv.Buffers() {
		t.Errorf("one-sided transfer consumed flow-control buffers: out %d/%d in %d/%d",
			send.OutFree(), send.Buffers(), recv.InFree(), recv.Buffers())
	}
	if got := r.nw.Delivered(); got != 1 {
		t.Errorf("Delivered() = %d, want 1", got)
	}
	if r.st[1].AdmitDrops != 0 {
		t.Errorf("admission control refused a one-sided frame (%d drops)", r.st[1].AdmitDrops)
	}
	if m.ArriveTime == 0 {
		t.Error("ArriveTime not stamped on one-sided delivery")
	}
}

// relCfg is the reliability configuration the one-sided tests run under.
func relCfg() Config {
	cfg := DefaultConfig()
	cfg.Reliability = ReliabilityConfig{
		Enabled: true, AckTimeout: 2 * sim.Microsecond,
		TimeoutCap: 16 * sim.Microsecond, MaxAttempts: 4,
	}
	return cfg
}

// TestOneSidedReliableSettle pins the reliable one-sided lifecycle: the ack
// settles the frame through OnSettled (no outgoing buffer was held, so no
// credit is released), and the endpoint's free list hands the frame back
// ready for a fresh send with a new sequence number.
func TestOneSidedReliableSettle(t *testing.T) {
	r := newOneSidedRig(t, relCfg())
	send := r.nw.Endpoint(0)
	m := NewSized(0, 1, 0, 64)
	r.eng.AfterEvent(0, func(any, uint64) { send.Put(m) }, nil, 0)
	r.eng.Run()

	if len(r.settled) != 1 || r.settled[0] != m {
		t.Fatalf("OnSettled saw %d frames, want the acked put", len(r.settled))
	}
	if send.OutFree() != send.Buffers() {
		t.Errorf("ack of a one-sided send changed outgoing credits: %d/%d", send.OutFree(), send.Buffers())
	}
	if rep := r.nw.QuiescenceReport(); rep != "" {
		t.Errorf("network not quiescent after settle:\n%s", rep)
	}
	firstSeq := m.Seq
	if firstSeq == 0 {
		t.Fatal("reliable put was never assigned a sequence number")
	}

	// Reuse the frame through the free list: freeing must clear the
	// reliability identity so the second send is a new message, not a
	// retransmission of the old one.
	send.FreeFrame(m)
	if f := send.TakeFrame(); f != m {
		t.Fatal("TakeFrame did not return the frame just freed")
	}
	if m.IsPut() || m.Seq != 0 || m.PayloadLen != 0 || m.Payload != nil {
		t.Fatalf("FreeFrame left state behind: IsPut=%v Seq=%d PayloadLen=%d", m.IsPut(), m.Seq, m.PayloadLen)
	}
	if f := send.TakeFrame(); f == m {
		t.Fatal("TakeFrame returned the same frame twice")
	}
	m.PayloadLen = 64
	r.eng.AfterEvent(0, func(any, uint64) { send.Put(m) }, nil, 0)
	r.eng.Run()
	if m.Seq == firstSeq || m.Seq == 0 {
		t.Errorf("recycled frame reused sequence number %d", m.Seq)
	}
	if len(r.puts) != 2 || len(r.settled) != 2 {
		t.Errorf("recycled send: %d puts, %d settles, want 2 and 2", len(r.puts), len(r.settled))
	}
}

// lossPlane drops or corrupts the first n injections, then passes traffic.
type lossPlane struct {
	n       int
	verdict FaultVerdict
	seen    int
}

func (p *lossPlane) Inject(now sim.Time, m *Message) FaultVerdict {
	p.seen++
	if p.seen <= p.n {
		return p.verdict
	}
	return FaultVerdict{}
}
func (p *lossPlane) Eject(now sim.Time, m *Message) FaultVerdict { return FaultVerdict{} }
func (p *lossPlane) DropControl(now sim.Time, kind ControlKind, m *Message) bool {
	return false
}

// TestOneSidedFaultRecovery drives a put through each fault verdict that
// destroys the frame in flight — drop, corruption (killed at the checksum
// gate), and forced bounce (degraded to a drop: one-sided frames cannot
// bounce) — and checks the retransmission timer lands it exactly once.
func TestOneSidedFaultRecovery(t *testing.T) {
	cases := []struct {
		name    string
		verdict FaultVerdict
		check   func(t *testing.T, st *stats.Node)
	}{
		{"drop", FaultVerdict{Drop: true}, func(t *testing.T, st *stats.Node) {
			if st.FaultDrops != 1 {
				t.Errorf("FaultDrops = %d, want 1", st.FaultDrops)
			}
		}},
		{"force-bounce", FaultVerdict{ForceBounce: true}, func(t *testing.T, st *stats.Node) {
			if st.FaultDrops != 1 {
				t.Errorf("forced bounce of a put should degrade to a drop: FaultDrops = %d", st.FaultDrops)
			}
			if st.ForcedBounces != 0 || st.Bounces != 0 {
				t.Errorf("one-sided frame bounced: forced=%d bounces=%d", st.ForcedBounces, st.Bounces)
			}
		}},
		{"corrupt", FaultVerdict{Corrupt: true}, nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := newOneSidedRig(t, relCfg())
			send := r.nw.Endpoint(0)
			send.Fault = &lossPlane{n: 1, verdict: tc.verdict}
			m := payloadMessage(0, 1, 0, []byte{1, 2, 3, 4})
			r.eng.AfterEvent(0, func(any, uint64) { send.Put(m) }, nil, 0)
			r.eng.Run()
			if len(r.puts) != 1 {
				t.Fatalf("put delivered %d times through the fault, want exactly 1", len(r.puts))
			}
			if len(r.settled) != 1 {
				t.Fatalf("put settled %d times, want 1", len(r.settled))
			}
			if r.st[0].Retransmits == 0 {
				t.Error("recovery never retransmitted")
			}
			if tc.check != nil {
				tc.check(t, r.st[0])
			}
			if rep := r.nw.QuiescenceReport(); rep != "" {
				t.Errorf("network not quiescent after recovery:\n%s", rep)
			}
		})
	}
}

// TestOneSidedAbandon exhausts the retransmission budget on a put that is
// always dropped: the send must surface a DeliveryError and settle through
// OnSettled so the sender's engine can reclaim the frame.
func TestOneSidedAbandon(t *testing.T) {
	r := newOneSidedRig(t, relCfg())
	send := r.nw.Endpoint(0)
	send.Fault = &lossPlane{n: 1 << 30, verdict: FaultVerdict{Drop: true}}
	m := NewSized(0, 1, 0, 64)
	r.eng.AfterEvent(0, func(any, uint64) { send.Put(m) }, nil, 0)
	r.eng.Run()

	if len(r.puts) != 0 {
		t.Fatalf("put delivered %d times through a total loss plane", len(r.puts))
	}
	if f := r.nw.Failures(); len(f) != 1 || f[0].Msg != m {
		t.Fatalf("abandon recorded %d delivery errors, want 1 for the put", len(f))
	}
	if len(r.settled) != 1 || r.settled[0] != m {
		t.Fatalf("abandoned put settled %d times, want 1", len(r.settled))
	}
	if send.OutFree() != send.Buffers() {
		t.Errorf("abandoning a one-sided send changed outgoing credits: %d/%d", send.OutFree(), send.Buffers())
	}
	if rep := r.nw.QuiescenceReport(); rep != "" {
		t.Errorf("network not quiescent after abandon:\n%s", rep)
	}
}
