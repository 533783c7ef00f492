package nic

import (
	"nisim/internal/membus"
	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/stats"
)

// blockBufEngine is the AP3000-like block-buffer transfer engine: the
// processor moves messages in 64-byte units between the NI fifo and an
// on-chip block buffer using UltraSparc-style block load/store
// instructions. Transfers use the bus's block mechanism — but the processor
// still manages every transfer.
type blockBufEngine struct {
	env *Env
	hw  *fifoHW
}

func newBlockBufEngine(env *Env, hw *fifoHW) *blockBufEngine {
	return &blockBufEngine{env: env, hw: hw}
}

// blockChunks describes the block-buffer loop over bytes: per 64-byte
// chunk, one block access of kind k with the buffer's flush or load
// overhead (§6.1.1: Cfg.BlockBufCycles) and, when copies is set, the
// instructions copying the chunk from registers/cache into the buffer
// before a store, or out of it after a load: one per 8 bytes.
func (f *fifoHW) blockChunks(k membus.Kind, bytes int, copies bool) *fifoSteps {
	c := f.train()
	c.bytes, c.unit, c.chunk = bytes, membus.BlockSize, -1
	c.move = uncached(k, FifoBase, membus.BlockSize)
	c.move.Cycles = f.env.Cfg.BlockBufCycles
	if copies {
		c.fill = k == membus.BlockWrite
		c.drain = !c.fill
	}
	return c
}

// prologue implements sendEngine: the path cycles and a status check.
//
//lint:hotpath
func (b *blockBufEngine) prologue() (proc.Step, proc.Step) {
	return proc.Step{Cycles: b.env.Cfg.BlkbufPathCycles}, statusRead()
}

// transmit implements sendEngine: per 64-byte chunk copy the payload into
// the block buffer and block-store it to the NI fifo; finally ring the
// doorbell.
//
//lint:hotpath
func (b *blockBufEngine) transmit(c *fifoCall) { c.push(b.push(c.m)) }

// push describes moving the message through the block buffer into the NI
// fifo and ringing the doorbell; it is also the cost of re-pushing a
// returned message.
func (b *blockBufEngine) push(m *netsim.Message) *fifoSteps {
	c := b.hw.blockChunks(membus.BlockWrite, m.Size(), true)
	c.tail = doorbell()
	return c
}

// pollMiss implements recvEngine: an unsuccessful poll's status read
// (fifoHW.missRead).
//
//lint:hotpath
func (b *blockBufEngine) pollMiss() (*fifoSteps, int) {
	return b.hw.missRead()
}

// receive implements recvEngine: the status read that found the message,
// then per 64-byte chunk, load the block buffer from the NI fifo and drain
// it into registers/cache.
//
//lint:hotpath
func (b *blockBufEngine) receive(c *fifoCall) {
	t := b.hw.blockChunks(membus.BlockRead, b.hw.head().Size(), true)
	t.lead = [2]proc.Step{statusRead(), {Cycles: b.env.Cfg.BlkbufPathCycles}}
	c.drain(t)
}

// retryWork implements recvEngine: the block-buffer retry has no handler
// work of its own.
//
//lint:hotpath
func (b *blockBufEngine) retryWork() int64 { return 0 }

// retryConsume implements recvEngine: the processor consumes the returned
// message via block loads, charged to Buffering.
//
//lint:hotpath
func (b *blockBufEngine) retryConsume(m *netsim.Message) (*fifoSteps, int) {
	return b.hw.blockChunks(membus.BlockRead, m.Size(), false), stats.Buffering
}

// repush implements sendEngine: re-push through the block buffer, charged
// to Transfer like the first push.
//
//lint:hotpath
func (b *blockBufEngine) repush(m *netsim.Message) (*fifoSteps, int) {
	return b.push(m), stats.Transfer
}

// reflectiveEngine is the Memory Channel-like send engine. Unlike the
// AP3000's fifo protocol, the Memory Channel send side is reflective
// memory: stores to a mapped page stream to the NI without status-register
// checks, which is why the paper finds its send performance almost
// identical to the StarT-JR-like NI's (§6.1.1). Send-only: reflective
// memory has no read path.
type reflectiveEngine struct {
	env *Env
	hw  *fifoHW
}

func newReflectiveEngine(env *Env, hw *fifoHW) *reflectiveEngine {
	return &reflectiveEngine{env: env, hw: hw}
}

// reflSendCycles is the small fixed software cost of a reflective-memory
// send (header build, page-table-mapped window selection).
const reflSendCycles = 30

// prologue implements sendEngine: the fixed software cost, and no status
// check.
//
//lint:hotpath
func (r *reflectiveEngine) prologue() (proc.Step, proc.Step) {
	return proc.Step{Cycles: reflSendCycles}, proc.Step{}
}

// transmit implements sendEngine: fill the block buffer and block-store
// each 64-byte chunk into the mapped send window.
//
//lint:hotpath
func (r *reflectiveEngine) transmit(c *fifoCall) {
	c.push(r.hw.blockChunks(membus.BlockWrite, c.m.Size(), true))
}

// repush implements sendEngine: under FifoVM buffering a returned message
// is simply streamed through the window again (reflective memory has no
// doorbell or status protocol to replay), charged to Transfer.
//
//lint:hotpath
func (r *reflectiveEngine) repush(m *netsim.Message) (*fifoSteps, int) {
	c := r.hw.blockChunks(membus.BlockWrite, m.Size(), true)
	c.lead[0].Cycles = reflSendCycles
	return c, stats.Transfer
}
