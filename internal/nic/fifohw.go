package nic

import (
	"nisim/internal/mainmem"
	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// fifoHW is the device hardware shared by the fifo-family transfer engines
// (uncached-word, register-word, block-buffer, reflective, UDMA): an
// SRAM-backed fifo window on the device, uncached status registers, and a
// receive queue that is physically the network's incoming flow-control
// buffers — which is why fifo-buffered designs are so sensitive to the
// flow-control buffer count (Figure 3a).
//
// Under the FifoVM buffering policy the processor is involved in buffering
// (Table 2): a returned message sits in its still-allocated outgoing buffer
// until the software notices and re-pushes it, so fifoHW also wires the
// bounce queue. Ring-buffered hybrids (Memory Channel send) share the same
// window hardware but leave bouncing to the NI; the composer un-wires
// OnBounce for them.
type fifoHW struct {
	env      *Env
	fifo     *mainmem.Memory // serialized NI SRAM behind the fifo window
	regs     *regsTarget
	recvQ    msgQueue
	bounced  msgQueue // returned-to-sender messages awaiting re-push
	recvCond *sim.Cond
}

func newFifoHW(env *Env) *fifoHW {
	f := &fifoHW{
		env:      env,
		fifo:     mainmem.New("ni-fifo", env.Cfg.NISRAM+env.Cfg.IOBridge, env.Eng),
		regs:     &regsTarget{latency: env.Cfg.NISRAM + env.Cfg.IOBridge},
		recvCond: sim.NewCond(env.Eng),
	}
	env.Bus.MapRange(RegBase, FifoBase, f.regs)
	env.Bus.MapRange(FifoBase, NIQSendBase, f.fifo)
	env.EP.OnAccept = func(m *netsim.Message) {
		// The message occupies its incoming flow-control buffer until the
		// processor pops it; ReleaseIn happens at pop time.
		f.recvQ.push(m)
		if tr := env.Trace; tr != nil {
			tr("buffer accept src=%d size=%dB queued=%d", m.Src, m.Size(), f.recvQ.len())
		}
		f.recvCond.Broadcast()
	}
	env.EP.OnBounce = func(m *netsim.Message) {
		f.bounced.push(m)
		if tr := env.Trace; tr != nil {
			tr("buffer bounce dst=%d size=%dB awaiting-retry=%d", m.Dst, m.Size(), f.bounced.len())
		}
		f.recvCond.Broadcast()
	}
	return f
}

// retryOne re-sends the oldest returned message. The repush callback
// charges the processor the design's re-push cost; the time, and the
// injection, count as processor-involved buffering work. Callers must
// prefer consuming incoming messages over retrying (consume-first avoids
// livelock between mutually bouncing senders).
func (f *fifoHW) retryOne(pr *proc.Proc, repush func(m *netsim.Message)) {
	m := f.bounced.pop()
	f.env.Stats.Retries++
	if tr := f.env.Trace; tr != nil {
		tr("buffer retry dst=%d size=%dB remaining=%d", m.Dst, m.Size(), f.bounced.len())
	}
	prev := pr.P.Category
	pr.P.Category = stats.Buffering
	repush(m)
	pr.P.Category = prev
	f.env.EP.Inject(m)
}

// hasBounced reports whether returned messages await software service.
func (f *fifoHW) hasBounced() bool { return f.bounced.len() > 0 }

// pending reports whether a message is waiting.
func (f *fifoHW) pending() bool { return f.recvQ.len() > 0 }

// head returns the message at the fifo head without popping it.
func (f *fifoHW) head() *netsim.Message {
	if f.recvQ.len() == 0 {
		return nil
	}
	return f.recvQ.peek()
}

// pop removes the head message and frees its flow-control buffer.
func (f *fifoHW) pop() *netsim.Message {
	m := f.recvQ.pop()
	f.env.EP.ReleaseIn()
	return m
}

// waitForMessageServicing parks the processor until a message is waiting,
// re-pushing returned messages while it waits; incoming messages take
// priority over retries. The idle time is charged to the compute category
// (it is communication wait, not an NI data-transfer or buffering cost).
func (f *fifoHW) waitForMessageServicing(pr *proc.Proc, repush func(m *netsim.Message)) {
	for {
		if f.recvQ.len() > 0 {
			return
		}
		if f.bounced.len() > 0 {
			f.retryOne(pr, repush)
			continue
		}
		f.recvCond.WaitAs(pr.P, stats.Compute)
	}
}

// recordRecv updates the NI-level fragment counters; application-message
// counters are maintained by the messaging layer on reassembly.
func recordRecv(env *Env, m *netsim.Message) {
	env.Stats.FragmentsReceived++
}
