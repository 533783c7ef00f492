package nic

import (
	"nisim/internal/mainmem"
	"nisim/internal/membus"
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
	steps    *fifoSteps // the processor's fifo train cursor (see train)
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

// retryOne re-sends the oldest returned message: the receive engine, when
// non-nil, charges reading it back off the network, and the send engine
// its re-push; the time, and the injection, count as processor-involved
// buffering work. Callers must prefer consuming incoming messages over
// retrying (consume-first avoids livelock between mutually bouncing
// senders).
func (f *fifoHW) retryOne(pr *proc.Proc, send sendEngine, recv recvEngine) {
	m := f.bounced.pop()
	f.env.Stats.Retries++
	if tr := f.env.Trace; tr != nil {
		tr("buffer retry dst=%d size=%dB remaining=%d", m.Dst, m.Size(), f.bounced.len())
	}
	prev := pr.P.Category
	pr.P.Category = stats.Buffering
	if recv != nil {
		recv.retryConsume(pr, m)
	}
	send.repush(pr, m)
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
// re-pushing returned messages with the send engine while it waits;
// incoming messages take priority over retries. The idle time is charged
// to the compute category (it is communication wait, not an NI
// data-transfer or buffering cost).
func (f *fifoHW) waitForMessageServicing(pr *proc.Proc, send sendEngine) {
	for {
		if f.recvQ.len() > 0 {
			return
		}
		if f.bounced.len() > 0 {
			f.retryOne(pr, send, nil)
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

// uncached is one uncached processor access to the NI.
func uncached(k membus.Kind, a membus.Addr, size int) proc.Step {
	return proc.Step{Access: true, Kind: k, Addr: a, Size: size}
}

// statusRead is the uncached read of the NI status register.
func statusRead() proc.Step { return uncached(membus.UncachedRead, RegStatus, 8) }

// doorbell is the uncached store that launches a pushed message.
func doorbell() proc.Step { return uncached(membus.UncachedWrite, RegGo, 8) }

// fifoTrain describes one processor transfer through the fifo window as an
// access train (proc.Train): up to two lead steps, then the message moved
// unit bytes at a time, then an optional tail step (the doorbell). Each
// unit is pre cycles of work, the move step (normally the unit's access),
// and, for block-buffer copies, the instructions filling the buffer before
// the access (fill) or draining it after (drain), one per 8 bytes of the
// unit. A status read opens every sub-message of chunk units; chunk < 0
// means the message is one sub-message. Zero steps are skipped.
type fifoTrain struct {
	lead        [2]proc.Step
	bytes, unit int
	pre         int64
	move        proc.Step
	fill, drain bool
	chunk       int
	status      proc.Step
	tail        proc.Step
}

// fifoSteps is the cursor a node's fifo trains run on: the train being
// walked plus the loop's own counters, so no step list is built.
type fifoSteps struct {
	fifoTrain
	tr    proc.Train
	led   int  // lead steps taken
	left  int  // message bytes still to move
	units int  // units moved in the current sub-message
	phase int  // the next step of the head unit: status, pre, move, drain
	ended bool // the tail step was taken
}

// train returns the node's fifo train cursor reset to an empty train, for
// an engine to describe in place and then start. A processor runs one
// train at a time, so the node's fifo engines share the cursor. It is
// allocated on the first transfer, not when the machine is built.
func (f *fifoHW) train() *fifoSteps {
	if f.steps == nil {
		f.steps = new(fifoSteps) //lint:allow noalloc once per node, on its first fifo transfer
	}
	*f.steps = fifoSteps{}
	return f.steps
}

// start runs the described train on pr charged to category.
//
//lint:hotpath
func (c *fifoSteps) start(pr *proc.Proc, category int) {
	c.left = c.bytes
	c.tr.Run(pr, category, c)
}

// lead runs a train of at most two steps.
func (f *fifoHW) lead(pr *proc.Proc, category int, a, b proc.Step) {
	c := f.train()
	c.lead = [2]proc.Step{a, b}
	c.start(pr, category)
}

// acquire is the fifo engines' send prologue: the path cycles and a check
// of the status register, then, while no outgoing flow-control buffer (the
// send fifo slot) is free, a wait and another check; the spin is a
// buffering stall. A zero status step means the engine checks nothing.
func (f *fifoHW) acquire(pr *proc.Proc, path, status proc.Step) {
	f.lead(pr, stats.Transfer, path, status)
	for !f.env.EP.TryAcquireOut() {
		f.env.Stats.SendBlocked++
		f.env.EP.WaitOut(pr.P)
		f.lead(pr, stats.Transfer, status, proc.Step{})
	}
}

// Next implements proc.Steps.
//
//lint:hotpath
func (c *fifoSteps) Next(s *proc.Step) bool {
	*s = proc.Step{}
	switch {
	case c.led < len(c.lead):
		*s = c.lead[c.led]
		c.led++
	case c.left > 0:
		switch c.phase {
		case 0:
			if c.units == c.chunk {
				c.units = 0
				*s = c.status
			}
		case 1:
			s.Cycles = c.pre
			if c.fill {
				s.Cycles = c.copyCycles()
			}
		case 2:
			*s = c.move
		case 3:
			if c.drain {
				s.Cycles = c.copyCycles()
			}
			c.left -= c.unit
			c.units++
		}
		c.phase = (c.phase + 1) % 4
	case !c.ended:
		c.ended = true
		*s = c.tail
	default:
		return false
	}
	return true
}

// copyCycles is the instruction count of copying the head unit through
// the block buffer: one per 8 bytes.
func (c *fifoSteps) copyCycles() int64 {
	return int64((min(c.left, c.unit) + 7) / 8)
}
