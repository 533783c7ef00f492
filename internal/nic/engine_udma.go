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

	// The block chain of the DMA in flight (see dma): the kind and address
	// of its next block, the blocks still to issue, the message to inject
	// when the last completes (nil on the receive side), and the process
	// waiting for it.
	dmaKind membus.Kind
	dmaNext membus.Addr
	dmaLeft int
	dmaMsg  *netsim.Message
	dmaProc *sim.Process

	// The staging copy's train (stage): one cached access over the whole
	// buffer, which the processor cache moves block by block.
	copyTr proc.Train
	copy   proc.OneStep
}

// stage copies the n bytes of a staging buffer at a through the processor
// cache, stores when write, as one access train charged to Transfer.
func (u *udmaEngine) stage(pr *proc.Proc, write bool, a membus.Addr, n int) {
	u.copyTr.Run(pr, stats.Transfer, u.copy.Set(proc.CachedStep(write, a, n)))
}

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

// initiate models the UDMA start plus the bus-master handoff from
// processor to NI.
func (u *udmaEngine) initiate(pr *proc.Proc) {
	u.startSeq().start(pr, stats.Transfer)
	pr.P.SleepAs(stats.Transfer, u.env.Cfg.UDMAMasterSwitch)
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

// dma runs an NI-managed block DMA: one bus transaction of the given kind
// per block from base, chained so each issues when the previous completes,
// then injection of m (nil on the receive side). The software waits for the
// whole transfer by polling the NI's completion register (the paper's
// messaging layer "waits until each UDMA transfer is complete").
func (u *udmaEngine) dma(pr *proc.Proc, kind membus.Kind, base membus.Addr, blocks int, m *netsim.Message) {
	if u.dmaProc != nil {
		panic("nic: UDMA transfer started while another is in flight")
	}
	u.dmaKind, u.dmaNext, u.dmaLeft, u.dmaMsg, u.dmaProc = kind, base, blocks, m, pr.P
	u.issueBlock()
	pr.P.ParkAs(stats.Transfer)
	u.hw.lead(pr, stats.Transfer, uncached(membus.UncachedRead, RegUdmaStat, 8), proc.Step{})
}

// issueBlock puts the chain's next block on the bus.
func (u *udmaEngine) issueBlock() {
	a := u.dmaNext
	u.dmaNext += membus.BlockSize
	u.dmaLeft--
	u.env.Bus.Issue(nil, u.dmaKind, a, 0, dmaBlockDone, u)
}

// dmaBlockDone is the completion hook of a DMA block: it issues the next
// block, or after the last injects the message and wakes the software.
func dmaBlockDone(recv any, _ uint64) {
	u := recv.(*udmaEngine)
	if u.dmaLeft > 0 {
		u.issueBlock()
		return
	}
	if u.dmaMsg != nil {
		u.env.EP.Inject(u.dmaMsg)
	}
	p := u.dmaProc
	u.dmaMsg, u.dmaProc = nil, nil
	p.Unpark()
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

// send implements sendEngine.
//
//lint:hotpath
func (u *udmaEngine) send(pr *proc.Proc, m *netsim.Message) {
	u.hw.acquire(pr, proc.Step{Cycles: u.env.Cfg.FifoPathCycles}, statusRead())
	if !u.useDMA(m) {
		// CM-5-style uncached pushes through the 64-word window.
		c := u.words(membus.UncachedWrite, m.Size(), u.env.Cfg.WordLoopCycles)
		c.tail = doorbell()
		c.start(pr, stats.Transfer)
		u.env.EP.Inject(m)
		return
	}

	// The message was composed in user memory: stage it through the cache
	// so the DMA reads hit the true source (processor cache or memory).
	src := u.staging()
	u.stage(pr, true, src, m.Size())
	u.initiate(pr)

	// NI-managed DMA: coherent block reads of the source buffer, then
	// injection. The software waits for completion (paper's simplification).
	u.dma(pr, membus.GetS, src, blocksFor(m), m)
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
// deposited by UDMA.
//
//lint:hotpath
func (u *udmaEngine) receive(pr *proc.Proc) *netsim.Message {
	m := u.hw.head()
	lead := [2]proc.Step{statusRead(), {Cycles: u.env.Cfg.FifoPathCycles}}
	if !u.useDMA(m) {
		c := u.words(membus.UncachedRead, m.Size(), u.env.Cfg.WordLoopCycles)
		c.lead = lead
		c.start(pr, stats.Transfer)
		recordRecv(u.env, m)
		return u.hw.pop()
	}

	// UDMA receive: the software first examines the message head in the
	// 64-word window to find its size and destination buffer, then initiates
	// the UDMA that deposits it into main memory without further processor
	// involvement, and waits for completion.
	c := u.head()
	c.lead = lead
	c.start(pr, stats.Transfer)
	dst := u.staging()
	u.initiate(pr)
	u.dma(pr, membus.WriteInvalidate, dst, blocksFor(m), nil)
	// The handler will read the data from memory; that cost lands on the
	// consumer's cached reads of the staging buffer.
	u.stage(pr, false, dst, m.Size())
	recordRecv(u.env, m)
	return u.hw.pop()
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
