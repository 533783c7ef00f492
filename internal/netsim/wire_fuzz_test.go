package netsim

import (
	"bytes"
	"math"
	"testing"

	"nisim/internal/sim"
)

// Seed corpus for the round-trip fuzzer. The payload sizes mirror the
// integer-truncation case fixed in PR 1: serialization time used integer
// division, so partial-word payloads (1 byte, 249 bytes) under-billed the
// wire. The codec must carry those exact lengths faithfully. The corpus is
// then extended with frames captured live from the fault plane, so the
// fuzzer starts from the wire images the fault machinery actually emits.
func fuzzSeeds(f *testing.F) {
	f.Add(0, 1, 0, 0, []byte(nil), uint64(0), uint64(0), uint8(0))
	f.Add(3, 7, 2, 1, []byte{0xff}, uint64(42), uint64(1), uint8(0))                  // 1-byte partial word
	f.Add(1, 0, 4, 0, bytes.Repeat([]byte{0xa5}, 20), uint64(0), uint64(9), uint8(0)) // spsolve payload
	f.Add(5, 6, 1, 2, bytes.Repeat([]byte{0x5a}, 248), uint64(7), uint64(100), uint8(0))
	f.Add(6, 5, 1, 2, bytes.Repeat([]byte{0x5a}, 249), uint64(7), uint64(101), uint8(0)) // 249: partial word

	// Rendezvous-protocol control frames (msglayer handler ids 220/221):
	// an RTS with the packed (xfer, bytes, handler) argument and the
	// application argument riding the Channel field, and the CTS echoing
	// the transfer id. Both are header-only.
	f.Add(2, 9, 220, 12345, []byte(nil), uint64(7)|uint64(4096)<<16|uint64(3)<<48, uint64(17), uint8(0))
	f.Add(9, 2, 221, 0, []byte(nil), uint64(7), uint64(18), uint8(0))
	// One-sided frames: a full put payload frame with the (xfer, idx,
	// total) tag, a synthetic put frame, and a get request carrying the
	// (xfer, bytes) argument.
	f.Add(2, 9, 222, 0, bytes.Repeat([]byte{0xe1}, 248), uint64(7)|uint64(2)<<32|uint64(17)<<48, uint64(19), uint8(1))
	f.Add(2, 9, 222, 0, []byte(nil), uint64(7)|uint64(16)<<32|uint64(17)<<48, uint64(20), uint8(1))
	f.Add(9, 2, 5, 0, []byte(nil), uint64(9)|uint64(600)<<32, uint64(21), uint8(2))

	for _, m := range captureFaultFrames() {
		f.Add(m.Src, m.Dst, m.Handler, m.Channel, m.Payload, m.Arg, m.Seq, uint8(m.oneSided))
	}
	for _, m := range captureOneSidedFrames() {
		f.Add(m.Src, m.Dst, m.Handler, m.Channel, m.Payload, m.Arg, m.Seq, uint8(m.oneSided))
	}
}

// captureOneSidedFrames drives put and get traffic over a tiny reliable
// network with a corrupting fault plane and snapshots the wire images the
// one-sided path actually emits: the pristine put frame, the corrupted
// copy at the eject point, and a get request. Deterministic, like
// captureFaultFrames.
func captureOneSidedFrames() []*Message {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Reliability = ReliabilityConfig{
		Enabled: true, AckTimeout: 1 * sim.Microsecond,
		TimeoutCap: 8 * sim.Microsecond, MaxAttempts: 8,
	}
	nw := New(eng, cfg, 2, 1)

	var frames []*Message
	snap := func(m *Message) {
		c := *m
		c.Payload = append([]byte(nil), m.Payload...)
		if m.Payload == nil {
			c.Payload = nil
		}
		frames = append(frames, &c)
	}

	injects := 0
	plane := &scriptPlane{
		inject: func(now sim.Time, m *Message) FaultVerdict {
			if m.oneSided == 0 {
				return FaultVerdict{}
			}
			injects++
			if injects == 1 {
				snap(m) // the pristine put frame
				return FaultVerdict{Corrupt: true}
			}
			return FaultVerdict{}
		},
		eject: func(now sim.Time, m *Message) FaultVerdict {
			if m.oneSided != 0 && !m.ChecksumOK() {
				snap(m) // the corrupted put as the receiver would see it
			}
			if m.oneSided == oneSidedGet {
				snap(m) // a get request header
			}
			return FaultVerdict{}
		},
	}
	nw.Endpoint(0).Fault = plane
	nw.Endpoint(1).Fault = plane

	nw.Endpoint(1).OnPut = func(m *Message) {}
	nw.Endpoint(1).OnGet = func(m *Message) {}
	nw.Endpoint(0).OnPut = func(m *Message) {}

	eng.After(0, func() {
		p := NewMessage(0, 1, 222, bytes.Repeat([]byte{0xd4}, 100))
		p.Arg = uint64(3) | uint64(0)<<32 | uint64(1)<<48
		nw.Endpoint(0).Put(p)
	})
	eng.After(20*sim.Microsecond, func() {
		g := NewSized(0, 1, 5, 0)
		g.Arg = uint64(4) | uint64(256)<<32
		nw.Endpoint(0).Get(g)
	})
	eng.Run()
	return frames
}

// captureFaultFrames drives a tiny two-node reliable network through a
// scripted fault plane and snapshots the frames the plane touched: a
// data message the plane duplicated, the corrupted copy observed at the
// eject point (flipped payload bit and all), and the header of a message
// returned on the bounce network. Deterministic: the engine's event order
// fixes the capture order.
func captureFaultFrames() []*Message {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Reliability = ReliabilityConfig{
		Enabled: true, AckTimeout: 1 * sim.Microsecond,
		TimeoutCap: 8 * sim.Microsecond, MaxAttempts: 8,
	}
	nw := New(eng, cfg, 2, 1)

	var frames []*Message
	snap := func(m *Message) {
		c := *m
		c.Payload = append([]byte(nil), m.Payload...)
		if m.Payload == nil {
			c.Payload = nil
		}
		frames = append(frames, &c)
	}

	injects := 0
	plane := &scriptPlane{
		inject: func(now sim.Time, m *Message) FaultVerdict {
			injects++
			switch injects {
			case 1:
				snap(m) // the frame the plane duplicates
				return FaultVerdict{Duplicate: true}
			case 2:
				return FaultVerdict{Corrupt: true}
			}
			return FaultVerdict{}
		},
		eject: func(now sim.Time, m *Message) FaultVerdict {
			if !m.ChecksumOK() {
				snap(m) // the corrupted copy as the receiver sees it
			}
			return FaultVerdict{}
		},
		ctl: func(now sim.Time, kind ControlKind, m *Message) bool {
			if kind == BounceControl {
				snap(m) // a bounce-network header
			}
			return false
		},
	}
	nw.Endpoint(0).Fault = plane
	nw.Endpoint(1).Fault = plane

	// One in-buffer, held across the first accept: the duplicate copy finds
	// it full and bounces (captured above), then settles as a stale ack.
	recv := nw.Endpoint(1)
	accepts := 0
	recv.OnAccept = func(m *Message) {
		accepts++
		if accepts > 1 {
			recv.ReleaseIn()
		}
	}
	send := func(m *Message) {
		if !nw.Endpoint(0).TryAcquireOut() {
			panic("capture rig: no out buffer")
		}
		nw.Endpoint(0).Inject(m)
	}
	eng.After(0, func() { send(NewSized(0, 1, 3, 8)) }) // duplicated, dup bounces
	eng.After(2*sim.Microsecond, func() { recv.ReleaseIn() })
	eng.After(3*sim.Microsecond, func() {
		m := NewMessage(0, 1, 4, bytes.Repeat([]byte{0xc3}, 33))
		m.Arg = 0xfeedface
		send(m) // corrupted in flight, retransmitted clean
	})
	eng.Run()
	return frames
}

func FuzzWireRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src, dst, handler, channel int, payload []byte, arg, seq uint64, sided uint8) {
		m := &Message{
			Src: src, Dst: dst, Handler: handler, Channel: channel,
			PayloadLen: len(payload), Payload: payload,
			Arg: arg, Seq: seq,
			// Normalized to the three declared one-sided kinds; the codec
			// rejects unknown flag bits on parse, and a frame can never
			// carry both put and get.
			oneSided: sided % 3,
		}
		if len(payload) == 0 {
			m.Payload = nil
		}
		m.SealChecksum()

		wire, err := m.AppendWire(nil)
		inRange := func(v int) bool { return v >= 0 && v <= math.MaxInt32 }
		if !inRange(src) || !inRange(dst) || !inRange(handler) || !inRange(channel) {
			if err == nil {
				t.Fatalf("AppendWire accepted out-of-range field: src=%d dst=%d handler=%d channel=%d", src, dst, handler, channel)
			}
			return
		}
		if err != nil {
			t.Fatalf("AppendWire: %v", err)
		}

		got, err := ParseWire(wire)
		if err != nil {
			t.Fatalf("ParseWire: %v", err)
		}
		if got.Src != m.Src || got.Dst != m.Dst || got.Handler != m.Handler ||
			got.Channel != m.Channel || got.PayloadLen != m.PayloadLen ||
			got.Arg != m.Arg || got.Seq != m.Seq || got.Checksum != m.Checksum {
			t.Fatalf("round trip changed fields:\n got %+v\nwant %+v", got, m)
		}
		if got.oneSided != m.oneSided {
			t.Fatalf("round trip changed one-sided kind: got %d want %d", got.oneSided, m.oneSided)
		}
		if !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("round trip changed payload: got %x want %x", got.Payload, m.Payload)
		}
		if (got.Payload == nil) != (m.Payload == nil) {
			t.Fatalf("round trip changed payload presence: got nil=%v want nil=%v", got.Payload == nil, m.Payload == nil)
		}
		if !got.ChecksumOK() {
			t.Fatalf("checksum does not verify after round trip: %+v", got)
		}

		// Any single corrupted payload byte must break the checksum: the
		// parse still succeeds (the header is intact) but ChecksumOK fails.
		if len(m.Payload) > 0 {
			i := int(seq) % len(m.Payload)
			corrupt := append([]byte(nil), wire...)
			corrupt[wireHeaderBytes+i] ^= 0x01
			cm, err := ParseWire(corrupt)
			if err != nil {
				t.Fatalf("ParseWire(corrupted payload): %v", err)
			}
			if cm.ChecksumOK() {
				t.Fatalf("checksum verified despite corrupted payload byte %d", i)
			}
			// A frame truncated after the corruption must be rejected
			// outright — never parsed into a short payload that happens to
			// re-verify.
			if _, err := ParseWire(corrupt[:len(corrupt)-1]); err == nil {
				t.Fatal("ParseWire accepted a frame truncated after corruption")
			}
		}
	})
}

// TestWireCarriesCorruptVerdict pins the fault-plane round trip: a frame
// captured mid-corruption must still fail ChecksumOK after encode/decode.
// For payload messages the flipped byte carries the evidence; for synthetic
// payloads (no bytes on the wire) only flagCorrupt does — losing it would
// relaundering a corrupted capture into a pristine one.
func TestWireCarriesCorruptVerdict(t *testing.T) {
	syn := NewSized(1, 2, 3, 64)
	syn.SealChecksum()
	sc := syn.corruptedCopy(7)
	wire, err := sc.AppendWire(nil)
	if err != nil {
		t.Fatalf("AppendWire(corrupted synthetic): %v", err)
	}
	got, err := ParseWire(wire)
	if err != nil {
		t.Fatalf("ParseWire(corrupted synthetic): %v", err)
	}
	if got.ChecksumOK() {
		t.Error("corrupted synthetic frame re-parsed as pristine")
	}

	pm := NewMessage(1, 2, 3, []byte{1, 2, 3, 4})
	pm.SealChecksum()
	pc := pm.corruptedCopy(11)
	wire, err = pc.AppendWire(nil)
	if err != nil {
		t.Fatalf("AppendWire(corrupted payload): %v", err)
	}
	got, err = ParseWire(wire)
	if err != nil {
		t.Fatalf("ParseWire(corrupted payload): %v", err)
	}
	if got.ChecksumOK() {
		t.Error("corrupted payload frame re-parsed as pristine")
	}
	if _, err := ParseWire(wire[:len(wire)-1]); err == nil {
		t.Error("ParseWire accepted a corrupted frame with a truncated tail")
	}

	// The pristine originals must still verify: corruption marks the copy,
	// never the sender's retransmission buffer.
	for _, m := range []*Message{syn, pm} {
		w, err := m.AppendWire(nil)
		if err != nil {
			t.Fatalf("AppendWire(pristine): %v", err)
		}
		g, err := ParseWire(w)
		if err != nil {
			t.Fatalf("ParseWire(pristine): %v", err)
		}
		if !g.ChecksumOK() {
			t.Errorf("pristine frame %v fails checksum after round trip", m)
		}
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	m := NewMessage(1, 2, 3, []byte{9, 8, 7})
	m.SealChecksum()
	wire, err := m.AppendWire(nil)
	if err != nil {
		t.Fatalf("AppendWire: %v", err)
	}

	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", wire[:wireHeaderBytes-1]},
		{"bad version", append([]byte{99}, wire[1:]...)},
		{"unknown flags", append([]byte{wire[0], 0x80}, wire[2:]...)},
		{"truncated payload", wire[:len(wire)-1]},
		{"trailing bytes", append(append([]byte(nil), wire...), 0)},
	}
	for _, tc := range cases {
		if _, err := ParseWire(tc.b); err == nil {
			t.Errorf("%s: ParseWire accepted malformed input", tc.name)
		}
	}

	// Synthetic message (no payload bytes) followed by junk.
	syn := NewSized(1, 2, 3, 64)
	sw, err := syn.AppendWire(nil)
	if err != nil {
		t.Fatalf("AppendWire(synthetic): %v", err)
	}
	if _, err := ParseWire(append(sw, 1, 2, 3)); err == nil {
		t.Error("ParseWire accepted trailing bytes after synthetic message")
	}
	got, err := ParseWire(sw)
	if err != nil {
		t.Fatalf("ParseWire(synthetic): %v", err)
	}
	if got.Payload != nil || got.PayloadLen != 64 {
		t.Errorf("synthetic round trip: got PayloadLen=%d Payload=%v, want 64, nil", got.PayloadLen, got.Payload)
	}

	// Length disagreement between header and in-memory payload.
	bad := NewMessage(1, 2, 3, []byte{1, 2, 3})
	bad.PayloadLen = 2
	if _, err := bad.AppendWire(nil); err == nil {
		t.Error("AppendWire accepted PayloadLen disagreeing with payload bytes")
	}
}
