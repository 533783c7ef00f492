package nic

import (
	"nisim/internal/membus"
	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// udmaEngine is the Princeton UDMA-based transfer engine (NI_64w+Udma): the
// processor can examine the first 64 words (256 bytes) of the fifo
// directly, and can initiate an NI-managed block DMA with a two-instruction
// user-level sequence (an uncached store of the buffer address followed by
// an uncached load that checks and commits the start).
//
// As in the paper (§6.1.1), the messaging layer uses the UDMA mechanism
// only for payloads larger than Cfg.UDMAThresholdBytes; smaller messages
// fall back on uncached word transfers like the CM-5-like NI. And as in the
// paper, the software waits for each UDMA transfer to complete, so the
// benefit is the block transfer itself, not overlap.
//
// When a spec uses the UDMA engine on both sides, the composer shares one
// instance so send and receive staging rotate through the same sequence —
// exactly the monolithic NI's behavior.
type udmaEngine struct {
	env *Env
	hw  *fifoHW

	// stagingSeq rotates DMA staging buffers through a DRAM region so that
	// consecutive transfers do not artificially hit in the cache.
	stagingSeq int

	// The DMA call in progress (see next): its next stage, whether it
	// sends, the staging buffer, and the start of the wait in progress
	// (the bus-master handoff or the block chain).
	stage   udmaStage
	sending bool
	buf     membus.Addr
	since   sim.Time

	// The block chain of the DMA in flight: the kind and address of its
	// next block, the blocks still to issue, and the message to inject
	// when the last completes (nil on the receive side).
	dmaKind membus.Kind
	dmaNext membus.Addr
	dmaLeft int
	dmaMsg  *netsim.Message

	// The staging copy's train: one cached access over the whole buffer,
	// which the processor cache moves block by block.
	copyTr proc.Train
	copy   proc.OneStep
}

// udmaStage is the next step of a DMA call. A send runs udmaCopyOut to
// udmaStatus, a receive udmaHead to udmaCopyIn; each skips the other's.
type udmaStage int8

const (
	udmaHead    udmaStage = iota // receive: examine the message head in the window
	udmaCopyOut                  // send: stage the message through the cache
	udmaStart                    // the two-instruction start
	udmaSwitch                   // the bus-master handoff
	udmaBlocks                   // the NI-managed block chain
	udmaStatus                   // the completion check
	udmaCopyIn                   // receive: the handler's read of the deposit
	udmaEnd
)

// udmaStagingBase is the DRAM region UDMA deposits received messages into
// (and reads send data from); user buffers in a real system. Offset so the
// rotating staging slots live at cache offsets [0x42000, 0x82000).
const udmaStagingBase membus.Addr = 0x2004_2000

func newUdmaEngine(env *Env, hw *fifoHW) *udmaEngine {
	return &udmaEngine{env: env, hw: hw}
}

func (u *udmaEngine) useDMA(m *netsim.Message) bool {
	return m.PayloadLen > u.env.Cfg.UDMAThresholdBytes
}

func (u *udmaEngine) staging() membus.Addr {
	u.stagingSeq++
	return udmaStagingBase + membus.Addr(u.stagingSeq%256)*1024
}

// startSeq describes the two-instruction UDMA start: an uncached store of
// the buffer address, then an uncached load that checks and commits the
// start.
func (u *udmaEngine) startSeq() *fifoSteps {
	c := u.hw.train()
	c.lead = [2]proc.Step{uncached(membus.UncachedWrite, RegUdmaAddr, 8), uncached(membus.UncachedRead, RegUdmaStat, 8)}
	return c
}

// words describes the uncached-word loop through the 64-word window: per
// Cfg.UncachedWordBytes word, loop cycles of software, then one window
// access of kind k.
func (u *udmaEngine) words(k membus.Kind, bytes int, loop int64) *fifoSteps {
	w := u.env.Cfg.UncachedWordBytes
	c := u.hw.train()
	c.bytes, c.unit, c.chunk = bytes, w, -1
	c.move = uncached(k, FifoBase, w)
	c.move.Cycles = loop
	return c
}

// head describes the software examining a message head in the window
// (size and destination buffer): two 8-byte loads.
func (u *udmaEngine) head() *fifoSteps {
	c := u.hw.train()
	c.bytes, c.unit, c.chunk = 16, 8, -1
	c.move = uncached(membus.UncachedRead, FifoBase, 8)
	return c
}

// dmaThen runs the DMA path of a send (sending) or a receive in event
// context (see next).
func (u *udmaEngine) dmaThen(sending bool) {
	u.stage, u.sending = udmaHead, sending
	u.next()
}

// next runs the DMA call's next stage, each where the processor resumed
// from the one before. A send stages the message through the cache, so
// the DMA reads hit the true source (processor cache or memory); a
// receive first examines the message head in the 64-word window to find
// its size and destination buffer. Then the UDMA start and the bus-master
// handoff from processor to NI, and the NI-managed DMA: coherent block
// reads of the source buffer and injection on a send, block writes of the
// deposit on a receive. The software waits for the whole transfer by
// polling the NI's completion register (the paper's messaging layer
// "waits until each UDMA transfer is complete"). A receive ends with the
// handler's cached read of the deposited message.
//
//lint:hotpath
func (u *udmaEngine) next() {
	c := &u.hw.cpu.call
	pr := c.pr
	for {
		stage := u.stage
		u.stage++
		switch stage {
		case udmaHead:
			if u.sending {
				continue
			}
			t := u.head()
			t.lead = [2]proc.Step{statusRead(), {Cycles: u.env.Cfg.FifoPathCycles}}
			t.startThen(pr, stats.Transfer, udmaStep, u)
		case udmaCopyOut:
			if !u.sending {
				continue
			}
			u.buf = u.staging()
			u.copyTr.Start(pr, stats.Transfer, u.copy.Set(proc.CachedStep(true, u.buf, c.m.Size())), udmaStep, u)
		case udmaStart:
			if !u.sending {
				u.buf = u.staging()
			}
			u.startSeq().startThen(pr, stats.Transfer, udmaStep, u)
		case udmaSwitch:
			d := u.env.Cfg.UDMAMasterSwitch
			if d == 0 {
				continue
			}
			u.since = u.env.Eng.Now()
			u.env.Eng.AfterEvent(d, udmaWoke, u, 0)
		case udmaBlocks:
			if u.sending {
				u.dmaKind, u.dmaMsg = membus.GetS, c.m
				u.dmaLeft = blocksFor(c.m)
			} else {
				u.dmaKind = membus.WriteInvalidate
				u.dmaLeft = blocksFor(u.hw.head())
			}
			u.dmaNext, u.since = u.buf, u.env.Eng.Now()
			u.issueBlock()
		case udmaStatus:
			t := u.hw.train()
			t.lead[0] = uncached(membus.UncachedRead, RegUdmaStat, 8)
			t.startThen(pr, stats.Transfer, udmaStep, u)
		case udmaCopyIn:
			if u.sending {
				continue
			}
			// The handler will read the data from memory; that cost lands
			// on the consumer's cached reads of the staging buffer.
			u.copyTr.Start(pr, stats.Transfer, u.copy.Set(proc.CachedStep(false, u.buf, u.hw.head().Size())), udmaStep, u)
		default:
			if u.sending {
				c.sendDone()
			} else {
				c.recvDone()
			}
		}
		return
	}
}

// udmaStep continues a DMA call where the processor resumed from its
// last train.
//
//lint:hotpath
func udmaStep(recv any, _ uint64) { recv.(*udmaEngine).next() }

// udmaWoke ends a wait of a DMA call, the bus-master handoff or the block
// chain, charging it to Transfer, and continues the call.
//
//lint:hotpath
func udmaWoke(recv any, _ uint64) {
	u := recv.(*udmaEngine)
	p := u.hw.cpu.call.pr.P
	if p.Done() {
		return
	}
	p.Charge(stats.Transfer, u.since)
	u.next()
}

// issueBlock puts the chain's next block on the bus.
func (u *udmaEngine) issueBlock() {
	a := u.dmaNext
	u.dmaNext += membus.BlockSize
	u.dmaLeft--
	u.env.Bus.Issue(nil, u.dmaKind, a, 0, dmaBlockDone, u)
}

// dmaBlockDone is the completion hook of a DMA block: it issues the next
// block, or after the last injects the message and ends the software's
// wait in the slot the process's Unpark took.
func dmaBlockDone(recv any, _ uint64) {
	u := recv.(*udmaEngine)
	if u.dmaLeft > 0 {
		u.issueBlock()
		return
	}
	if u.dmaMsg != nil {
		u.env.EP.Inject(u.dmaMsg)
		u.dmaMsg = nil
	}
	if !u.hw.cpu.call.pr.P.Done() {
		u.env.Eng.AfterEvent(0, udmaWoke, u, 0)
	}
}

// repush implements sendEngine: the software cost of re-sending a returned
// message, charged to Buffering. Small messages are re-pushed through the
// window; for UDMA transfers the data still sits in the NI, so the
// software re-runs the start sequence.
//
//lint:hotpath
func (u *udmaEngine) repush(m *netsim.Message) (*fifoSteps, int) {
	if !u.useDMA(m) {
		c := u.words(membus.UncachedWrite, m.Size(), u.env.Cfg.WordLoopCycles)
		c.tail = doorbell()
		return c, stats.Buffering
	}
	return u.startSeq(), stats.Buffering
}

// prologue implements sendEngine: the fifo path cycles and a status
// check.
//
//lint:hotpath
func (u *udmaEngine) prologue() (proc.Step, proc.Step) {
	return proc.Step{Cycles: u.env.Cfg.FifoPathCycles}, statusRead()
}

// transmit implements sendEngine: CM-5-style uncached pushes through the
// 64-word window, or the DMA path (next).
//
//lint:hotpath
func (u *udmaEngine) transmit(c *fifoCall) {
	if u.useDMA(c.m) {
		u.dmaThen(true)
		return
	}
	t := u.words(membus.UncachedWrite, c.m.Size(), u.env.Cfg.WordLoopCycles)
	t.tail = doorbell()
	c.push(t)
}

// pollMiss implements recvEngine: an unsuccessful poll's status read
// (fifoHW.missRead).
//
//lint:hotpath
func (u *udmaEngine) pollMiss() (*fifoSteps, int) {
	return u.hw.missRead()
}

// receive implements recvEngine: the status read that found the message,
// the path cycles, then the message drained through the window or
// deposited by UDMA (next).
//
//lint:hotpath
func (u *udmaEngine) receive(c *fifoCall) {
	m := u.hw.head()
	if u.useDMA(m) {
		u.dmaThen(false)
		return
	}
	t := u.words(membus.UncachedRead, m.Size(), u.env.Cfg.WordLoopCycles)
	t.lead = [2]proc.Step{statusRead(), {Cycles: u.env.Cfg.FifoPathCycles}}
	c.drain(t)
}

// retryWork implements recvEngine: the UDMA retry has no handler work of
// its own.
//
//lint:hotpath
func (u *udmaEngine) retryWork() int64 { return 0 }

// retryConsume implements recvEngine: the processor examines the returned
// message in the window before re-pushing it, charged to Buffering.
//
//lint:hotpath
func (u *udmaEngine) retryConsume(m *netsim.Message) (*fifoSteps, int) {
	if !u.useDMA(m) {
		return u.words(membus.UncachedRead, m.Size(), 0), stats.Buffering
	}
	return u.head(), stats.Buffering
}
