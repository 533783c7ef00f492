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
	env     *Env
	fifo    *mainmem.Memory // serialized NI SRAM behind the fifo window
	regs    *regsTarget
	recvQ   msgQueue
	bounced msgQueue // returned-to-sender messages awaiting re-push
	cpu     *fifoCPU // the processor's side of the window (see processor)

	sendEng, recvEng Engine // the spec's engines, for the trace
}

// fifoCPU is the processor's state at a node's fifo window: the cursor
// its fifo trains run on, the NI call it is making and the spinner that
// runs its blocked work.
type fifoCPU struct {
	steps fifoSteps
	call  fifoCall
	spin  spinner
}

// processor returns the node's fifoCPU. It is allocated on the node's
// first fifo transfer, not when the machine is built: held by value it
// would add about 0.5 KiB to every node's build (DESIGN.md §4.4).
func (f *fifoHW) processor() *fifoCPU {
	if f.cpu == nil {
		f.cpu = new(fifoCPU) //lint:allow noalloc once per node, on its first fifo transfer
		f.cpu.call.f, f.cpu.spin.f = f, f
	}
	return f.cpu
}

func newFifoHW(env *Env, spec Spec) *fifoHW {
	f := &fifoHW{
		env:     env,
		sendEng: spec.Send,
		recvEng: spec.Recv,
		fifo:    mainmem.New("ni-fifo", env.Cfg.NISRAM+env.Cfg.IOBridge, env.Eng),
		regs:    &regsTarget{latency: env.Cfg.NISRAM + env.Cfg.IOBridge},
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
		f.wake()
	}
	env.EP.OnBounce = func(m *netsim.Message) {
		f.bounced.push(m)
		if tr := env.Trace; tr != nil {
			tr("buffer bounce dst=%d size=%dB awaiting-retry=%d", m.Dst, m.Size(), f.bounced.len())
		}
		f.wake()
	}
	return f
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

// fifoCall is the NI call the processor is making at the fifo window
// (NI.Send, Poll, Recv), run in event context while its process stays
// parked: the engines, the message in hand and where the call ends. The
// processor makes one call at a time, so one record per node serves them
// all (fifoCPU).
type fifoCall struct {
	f    *fifoHW
	pr   *proc.Proc
	send sendEngine
	recv recvEngine
	m    *netsim.Message // the message being sent
	// The call's end: sent(doneRecv, 0) after a send, received(doneRecv,
	// m) after a receive.
	sent     sim.Handler
	received Received
	doneRecv any
}

// call returns the node's call record set up for pr.
func (f *fifoHW) call(pr *proc.Proc) *fifoCall {
	c := &f.processor().call
	c.pr = pr
	return c
}

// send runs a send in event context (NI.Send): the engine's prologue
// train, then, where the processor resumed from it, the claim of the
// outgoing flow-control buffer (the send fifo slot) that CanSend found
// free, and the engine's transmit. Only this node's sends claim one, so
// the buffer free at entry is still free for the claim.
//
//lint:hotpath
func (f *fifoHW) send(pr *proc.Proc, e sendEngine, m *netsim.Message, done sim.Handler, recv any) {
	if f.env.EP.OutFree() == 0 {
		panic("nic: Send without CanSend")
	}
	if tr := f.env.Trace; tr != nil {
		tr("engine send start engine=%s dst=%d size=%dB", f.sendEng, m.Dst, m.Size())
	}
	c := f.call(pr)
	c.send, c.m, c.sent, c.doneRecv = e, m, done, recv
	t := f.train()
	t.lead[0], t.lead[1] = e.prologue()
	t.startThen(pr, stats.Transfer, fifoAcquired, c)
}

// fifoAcquired ends a send's prologue train: the buffer is claimed and
// the engine transmits.
//
//lint:hotpath
func fifoAcquired(recv any, _ uint64) {
	c := recv.(*fifoCall)
	c.f.env.EP.TryAcquireOut()
	c.send.transmit(c)
}

// push runs t, the push train of c's message, and injects the message
// when it ends: the whole transmit of every engine but UDMA's DMA path.
//
//lint:hotpath
func (c *fifoCall) push(t *fifoSteps) { t.startThen(c.pr, stats.Transfer, fifoPushed, c) }

// fifoPushed ends a push train: the message goes out.
//
//lint:hotpath
func fifoPushed(recv any, _ uint64) {
	c := recv.(*fifoCall)
	c.f.env.EP.Inject(c.m)
	c.sendDone()
}

// sendDone ends a send, its message injected, where the process would
// resume from it.
//
//lint:hotpath
func (c *fifoCall) sendDone() {
	m, done, recv := c.m, c.sent, c.doneRecv
	c.m, c.sent, c.doneRecv = nil, nil, nil
	if tr := c.f.env.Trace; tr != nil {
		tr("engine send complete engine=%s dst=%d", c.f.sendEng, m.Dst)
	}
	done(recv, 0)
}

// poll runs a poll in event context (NI.Poll): the receive of the
// head message.
//
//lint:hotpath
func (f *fifoHW) poll(pr *proc.Proc, e recvEngine, done Received, recv any) {
	c := f.call(pr)
	c.recv, c.received, c.doneRecv = e, done, recv
	e.receive(c)
}

// recv runs a blocking receive in event context (NI.Recv): the wait
// for a message, re-pushing returned messages with the send engine
// meanwhile (spinner.serve), then the receive. Incoming messages take
// priority over retries. The idle time is charged to the compute category
// (it is communication wait, not an NI data-transfer or buffering cost).
//
//lint:hotpath
func (f *fifoHW) recv(pr *proc.Proc, send sendEngine, e recvEngine, done Received, recv any) {
	c := f.call(pr)
	c.recv, c.received, c.doneRecv = e, done, recv
	if f.recvQ.len() > 0 {
		e.receive(c)
		return
	}
	s := f.spinner(pr, send)
	s.recv, s.done = nil, nil
	s.serve()
}

// drain runs t, the train that drains the head message out of the
// window, and ends the receive when it ends.
//
//lint:hotpath
func (c *fifoCall) drain(t *fifoSteps) { t.startThen(c.pr, stats.Transfer, fifoDrained, c) }

// fifoDrained ends a drain train.
//
//lint:hotpath
func fifoDrained(recv any, _ uint64) { recv.(*fifoCall).recvDone() }

// recvDone ends a receive where the process would resume from it: the
// head message, drained, is popped, freeing its flow-control buffer.
//
//lint:hotpath
func (c *fifoCall) recvDone() {
	f := c.f
	recordRecv(f.env)
	m := f.pop()
	if tr := f.env.Trace; tr != nil {
		tr("engine recv complete engine=%s src=%d size=%dB", f.recvEng, m.Src, m.Size())
	}
	done, recv := c.received, c.doneRecv
	c.received, c.doneRecv = nil, nil
	done(recv, m)
}

// pollMiss runs an unsuccessful poll in event context (NI.PollMiss): the
// receive engine's miss train, then, in the slot where the processor
// resumed from it, one retry when a returned message waits.
func (f *fifoHW) pollMiss(pr *proc.Proc, send sendEngine, recv recvEngine, done sim.Handler, doneRecv any) {
	s := f.spinner(pr, send)
	s.recv, s.done, s.doneRecv = recv, done, doneRecv
	c, category := recv.pollMiss()
	c.startThen(pr, category, spinMissed, s)
}

// spinner is the processor's poll-while-blocked work run in event
// context while its process stays parked (sim.Process.ParkUncharged): an
// unsuccessful poll and the retry it finds (pollMiss), and the wait of a
// blocking receive and its retries (serve). Each piece keeps the event
// keys it had as process steps: a train's end runs where the process
// resumed from it, and a wake where the wait's Unpark scheduled the
// process. The processor runs one of them
// at a time, so one record per node serves them all (fifoCPU).
type spinner struct {
	f    *fifoHW
	pr   *proc.Proc
	send sendEngine
	recv recvEngine // reads a returned message back before its re-push; nil in Recv

	m     *netsim.Message // the returned message being re-pushed
	stage retryStage
	// A blocking receive's wait for an accept or a bounce: whether it
	// waits, and since when.
	waiting bool
	since   sim.Time
	// done runs when the retry or the poll is over, with arg 1 after a
	// retry; nil in a blocking receive, which serves on.
	done     sim.Handler
	doneRecv any
}

// retryStage is the next step of a retry.
type retryStage int8

const (
	retryHandler retryStage = iota // the retry handler's own software (recvEngine.retryWork)
	retryRead                      // reading the message back (recvEngine.retryConsume)
	retryPush                      // the re-push (sendEngine.repush)
	retryInject                    // the injection
)

// spinner returns the node's spinner set up for pr and send.
func (f *fifoHW) spinner(pr *proc.Proc, send sendEngine) *spinner {
	s := &f.processor().spin
	s.pr, s.send = pr, send
	return s
}

// spinMissed ends the miss train of pollMiss, in the slot where the
// processor resumed from it: a returned message waiting for software is
// re-pushed now; otherwise the poll is over.
//
//lint:hotpath
func spinMissed(recv any, _ uint64) {
	s := recv.(*spinner)
	if s.f.hasBounced() {
		s.retry()
		return
	}
	s.finish(0)
}

// retry starts the re-push of the oldest returned message: the receive
// engine, when non-nil, charges the retry handler's software and reading
// the message back off the network, the send engine its re-push, each as
// one train, and the message is injected again when the re-push ends.
// The engines do not agree on the category: the handler work is
// Buffering; the CM-5 engines charge the read-back and the re-push to
// Transfer, the block-buffer engine its read-back to Buffering and its
// re-push (and the reflective engine's) to Transfer, and UDMA both to
// Buffering.
//
//lint:hotpath
func (s *spinner) retry() {
	f := s.f
	s.m = f.bounced.pop()
	f.env.Stats.Retries++
	if tr := f.env.Trace; tr != nil {
		tr("buffer retry dst=%d size=%dB remaining=%d", s.m.Dst, s.m.Size(), f.bounced.len())
	}
	s.stage = retryHandler
	s.next()
}

// retryStep continues a retry where the processor resumed from its last
// train.
//
//lint:hotpath
func retryStep(recv any, _ uint64) { recv.(*spinner).next() }

// next starts the retry's next train, or injects the message once the
// re-push is done.
//
//lint:hotpath
func (s *spinner) next() {
	for {
		stage := s.stage
		s.stage++
		switch stage {
		case retryHandler:
			if s.recv == nil || s.recv.retryWork() == 0 {
				break
			}
			c := s.f.train()
			c.lead[0].Cycles = s.recv.retryWork()
			c.startThen(s.pr, stats.Buffering, retryStep, s)
			return
		case retryRead:
			if s.recv == nil {
				break
			}
			c, category := s.recv.retryConsume(s.m)
			c.startThen(s.pr, category, retryStep, s)
			return
		case retryPush:
			c, category := s.send.repush(s.m)
			c.startThen(s.pr, category, retryStep, s)
			return
		default: // retryInject
			m := s.m
			s.m = nil
			s.f.env.EP.Inject(m)
			s.finish(1)
			return
		}
	}
}

// finish ends a retry or a poll: it runs the done hook, or a blocking
// receive serves on.
//
//lint:hotpath
func (s *spinner) finish(retried uint64) {
	done := s.done
	if done == nil {
		s.serve()
		return
	}
	s.done = nil
	done(s.doneRecv, retried)
}

// serve is one turn of a blocking receive's loop, at the time the process
// would run it: a waiting message is received, a returned message is
// re-pushed, and otherwise the receive waits for an accept or a bounce
// (wake). It runs first from fifoHW.recv, when no message is waiting.
//
//lint:hotpath
func (s *spinner) serve() {
	f := s.f
	switch {
	case f.recvQ.len() > 0:
		c := &f.cpu.call
		c.recv.receive(c)
	case f.hasBounced():
		s.retry()
	default:
		s.waiting, s.since = true, f.env.Eng.Now()
	}
}

// wake is the call point of an accept or a bounce: a waiting receive
// serves on in the slot its Unpark takes.
//
//lint:hotpath
func (f *fifoHW) wake() {
	if f.cpu == nil {
		return
	}
	if s := &f.cpu.spin; s.waiting && !s.pr.P.Done() {
		s.waiting = false
		f.env.Eng.AfterEvent(0, spinWoke, s, 0)
	}
}

// spinWoke serves a woken receive on, charging its wait to Compute.
//
//lint:hotpath
func spinWoke(recv any, _ uint64) {
	s := recv.(*spinner)
	if s.pr.P.Done() {
		return
	}
	s.pr.P.Charge(stats.Compute, s.since)
	s.serve()
}

// recordRecv updates the NI-level fragment counters; application-message
// counters are maintained by the messaging layer on reassembly.
func recordRecv(env *Env) {
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
// train at a time, so the node's fifo engines share the cursor.
func (f *fifoHW) train() *fifoSteps {
	c := &f.processor().steps
	*c = fifoSteps{}
	return c
}

// startThen runs the described train in event context, with pr's process
// parked, and runs done(recv, 0) when it ends (proc.Train.Start).
//
//lint:hotpath
func (c *fifoSteps) startThen(pr *proc.Proc, category int, done sim.Handler, recv any) {
	c.left = c.bytes
	c.tr.Start(pr, category, c, done, recv)
}

// missRead describes the udma and blkbuf engines' unsuccessful poll: the
// status read, charged to Buffering as monitoring cost.
func (f *fifoHW) missRead() (*fifoSteps, int) {
	c := f.train()
	c.lead[0] = statusRead()
	return c, stats.Buffering
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
