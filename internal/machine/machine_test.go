package machine

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"nisim/internal/msglayer"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/sim"
)

// pingPong runs r round trips of payload-byte messages between nodes 0 and
// 1 and returns the mean round-trip time.
func pingPong(t *testing.T, kind nic.Kind, bufs, payload, rounds int) sim.Time {
	t.Helper()
	cfg := DefaultConfig(kind, bufs)
	cfg.Nodes = 2
	m := New(cfg)

	var start, total sim.Time
	const hPing, hPong = 1, 2
	got := 0
	for _, n := range m.Nodes {
		n := n
		n.EP.Register(hPing, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			ep.Send(msg.Src, hPong, msg.PayloadLen, 0)
		})
		n.EP.Register(hPong, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			got++
		})
	}
	st := m.Run(func(n *Node) {
		if n.ID != 0 {
			// Node 1 serves pings until node 0 finishes; detect completion
			// via a final "done" barrier.
			n.Barrier()
			return
		}
		for i := 0; i < rounds; i++ {
			target := got + 1
			start = n.Proc.P.Now()
			n.EP.Send(1, hPing, payload, 0)
			n.EP.WaitUntil(func() bool { return got >= target })
			total += n.Proc.P.Now() - start
		}
		n.Barrier()
	})
	if got != rounds {
		t.Fatalf("%v: completed %d/%d round trips", kind, got, rounds)
	}
	if st.ExecTime <= 0 {
		t.Fatalf("%v: no simulated time elapsed", kind)
	}
	return total / sim.Time(rounds)
}

func TestPingPongAllNIs(t *testing.T) {
	for _, kind := range nic.Kinds() {
		kind := kind
		t.Run(kind.ShortName(), func(t *testing.T) {
			for _, payload := range []int{8, 64, 256, 1024} {
				rtt := pingPong(t, kind, 8, payload, 3)
				if rtt <= 80*sim.Nanosecond {
					t.Errorf("payload %d: rtt %v implausibly below 2x network latency", payload, rtt)
				}
				if rtt > 200*sim.Microsecond {
					t.Errorf("payload %d: rtt %v implausibly high", payload, rtt)
				}
			}
		})
	}
}

func TestPayloadIntegrityAllNIs(t *testing.T) {
	for _, kind := range nic.Kinds() {
		kind := kind
		t.Run(kind.ShortName(), func(t *testing.T) {
			cfg := DefaultConfig(kind, 4)
			cfg.Nodes = 2
			m := New(cfg)
			const h = 1
			var received [][]byte
			sent := [][]byte{
				[]byte("hello"),
				bytes.Repeat([]byte{0xAB}, 300),  // forces fragmentation
				bytes.Repeat([]byte{0xCD}, 3076), // moldyn-sized bulk
			}
			for _, n := range m.Nodes {
				n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
					cp := make([]byte, len(msg.Payload))
					copy(cp, msg.Payload)
					received = append(received, cp)
				})
			}
			m.Run(func(n *Node) {
				if n.ID == 0 {
					for _, b := range sent {
						n.EP.SendBytes(1, h, b, 0)
					}
				} else {
					// Bounced fragments can be overtaken by later traffic, so
					// completion is by count, not order.
					n.EP.WaitUntil(func() bool { return len(received) == len(sent) })
				}
				n.Barrier()
			})
			if len(received) != len(sent) {
				t.Fatalf("received %d messages, want %d", len(received), len(sent))
			}
			for i := range sent {
				if !bytes.Equal(received[i], sent[i]) {
					t.Errorf("message %d corrupted: got %d bytes, want %d", i, len(received[i]), len(sent[i]))
				}
			}
		})
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	cfg := DefaultConfig(nic.CNI32Qm, 8)
	cfg.Nodes = 8
	m := New(cfg)
	var minAfter, maxBefore sim.Time
	maxBefore = -1
	m.Run(func(n *Node) {
		// Stagger arrival times.
		n.Proc.Compute(int64(n.ID) * 1000)
		before := n.Proc.P.Now()
		if before > maxBefore {
			maxBefore = before
		}
		n.Barrier()
		after := n.Proc.P.Now()
		if minAfter == 0 || after < minAfter {
			minAfter = after
		}
	})
	if minAfter < maxBefore {
		t.Fatalf("barrier violated: a node left (%v) before the last arrived (%v)", minAfter, maxBefore)
	}
}

func TestAllToAllUnderTinyBuffers(t *testing.T) {
	// Stress flow control: every node blasts every other node with only one
	// flow-control buffer. Conservation must hold and the run must finish.
	for _, kind := range []nic.Kind{nic.CM5, nic.AP3000, nic.CNI32Qm, nic.StarTJR} {
		kind := kind
		t.Run(kind.ShortName(), func(t *testing.T) {
			cfg := DefaultConfig(kind, 1)
			cfg.Nodes = 4
			m := New(cfg)
			const h = 1
			recv := 0
			for _, n := range m.Nodes {
				n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) { recv++ })
			}
			const per = 20
			m.Run(func(n *Node) {
				for i := 0; i < per; i++ {
					for d := 0; d < cfg.Nodes; d++ {
						if d != n.ID {
							n.EP.Send(d, h, 12, 0)
						}
					}
				}
				// Two barriers: ensure all traffic drained before exit.
				n.Barrier()
				n.EP.Drain()
				n.Barrier()
			})
			want := per * cfg.Nodes * (cfg.Nodes - 1)
			if recv != want {
				t.Fatalf("received %d, want %d", recv, want)
			}
		})
	}
}

func TestExecTimeIsDeterministic(t *testing.T) {
	run := func() sim.Time {
		cfg := DefaultConfig(nic.CNI512Q, 2)
		cfg.Nodes = 4
		m := New(cfg)
		const h = 1
		for _, n := range m.Nodes {
			n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) {})
		}
		st := m.Run(func(n *Node) {
			for i := 0; i < 50; i++ {
				n.EP.Send((n.ID+1)%cfg.Nodes, h, 32, 0)
				n.Proc.Compute(200)
			}
			n.Barrier()
			n.EP.Drain()
			n.Barrier()
		})
		return st.ExecTime
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic execution time: %v vs %v", a, b)
	}
}

func TestRunTwicePanics(t *testing.T) {
	cfg := DefaultConfig(nic.CM5, 1)
	cfg.Nodes = 2
	m := New(cfg)
	m.Run(func(n *Node) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	m.Run(func(n *Node) {})
}

func TestTimeBreakdownRecorded(t *testing.T) {
	cfg := DefaultConfig(nic.CM5, 1)
	cfg.Nodes = 2
	m := New(cfg)
	const h = 1
	for _, n := range m.Nodes {
		n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) {})
	}
	st := m.Run(func(n *Node) {
		for i := 0; i < 30; i++ {
			n.EP.Send((n.ID+1)%2, h, 64, 0)
			n.Proc.Compute(100)
		}
		n.Barrier()
		n.EP.Drain()
		n.Barrier()
	})
	tot := st.Total()
	if tot.TimeIn[1] == 0 { // stats.Transfer
		t.Error("no transfer time recorded for CM-5-like NI")
	}
	if tot.MessagesSent == 0 || tot.MessagesReceived == 0 {
		t.Error("message counters empty")
	}
	if tot.MessagesSent != tot.MessagesReceived {
		t.Errorf("conservation: sent %d != received %d", tot.MessagesSent, tot.MessagesReceived)
	}
}

func TestFlowBufferSweepHelps(t *testing.T) {
	// On a bursty workload with computation between sends, plentiful
	// flow-control buffering must not hurt, and should help a fifo NI
	// (Figure 3a's core effect).
	run := func(bufs int) sim.Time {
		cfg := DefaultConfig(nic.CM5, bufs)
		cfg.Nodes = 4
		m := New(cfg)
		const h = 1
		for _, n := range m.Nodes {
			n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) {})
		}
		st := m.Run(func(n *Node) {
			for i := 0; i < 40; i++ {
				for d := 0; d < cfg.Nodes; d++ {
					if d != n.ID {
						n.EP.Send(d, h, 12, 0)
					}
				}
				n.Proc.Compute(800)
			}
			n.Barrier()
			n.EP.Drain()
			n.Barrier()
		})
		return st.ExecTime
	}
	one, eight, inf := run(1), run(8), run(netsim.Infinite)
	if inf > one+one/20 {
		t.Errorf("infinite buffers (%v) slower than one buffer (%v)", inf, one)
	}
	if eight > one+one/10 {
		t.Errorf("eight buffers (%v) much slower than one buffer (%v)", eight, one)
	}
}

func ExampleNode() {
	fmt.Println("see examples/quickstart")
	// Output: see examples/quickstart
}

// Building a machine costs memory in proportion to what a run can touch
// before it starts, not to the capacity of its nodes' structures: a
// 256-node scalefig1 machine (CM-5 NI, one flow-control buffer) has 256 MB
// of processor cache, but a cache allocates its tag store on its first
// install, page by page as lines are installed. Dense 1 MB tag arrays
// alone would cost 64 MiB here. The bound is tight enough to catch an
// eager page directory: 256 pointers to 512 B pages per cache add
// 0.5 MiB, which raised this build from 0.6 to 1.2 MiB and its time by
// about 60%.
func TestMachineNewFootprint(t *testing.T) {
	cfg := DefaultConfig(nic.CM5, 1)
	cfg.Nodes = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("256-node machine.New allocated %.2f MiB", got)
	if got >= 1 {
		t.Fatalf("256-node machine.New allocated %.2f MiB, want < 1 MiB", got)
	}
}
