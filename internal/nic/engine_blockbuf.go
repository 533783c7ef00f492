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

// send implements sendEngine: check status, then per 64-byte chunk copy the
// payload into the block buffer and block-store it to the NI fifo; finally
// ring the doorbell.
//
//lint:hotpath
func (b *blockBufEngine) send(pr *proc.Proc, m *netsim.Message) {
	pr.Work(stats.Transfer, b.env.Cfg.BlkbufPathCycles)
	pr.UncachedRead(stats.Transfer, RegStatus, 8)
	for !b.env.EP.TryAcquireOut() {
		b.env.Stats.SendBlocked++
		b.env.EP.WaitOut(pr.P)
		pr.UncachedRead(stats.Transfer, RegStatus, 8)
	}
	b.push(pr, m)
	b.env.EP.Inject(m)
}

// push moves the message through the block buffer into the NI fifo; it is
// also the cost of re-pushing a returned message.
func (b *blockBufEngine) push(pr *proc.Proc, m *netsim.Message) {
	remaining := m.Size()
	for remaining > 0 {
		chunk := remaining
		if chunk > membus.BlockSize {
			chunk = membus.BlockSize
		}
		// Fill the block buffer from registers/cache: one instruction per
		// 8 bytes.
		pr.Work(stats.Transfer, int64((chunk+7)/8))
		// Flush the block buffer to the NI fifo (12-cycle overhead, §6.1.1).
		pr.BlockWrite(stats.Transfer, FifoBase, b.env.Cfg.BlockBufCycles)
		remaining -= chunk
	}
	pr.UncachedWrite(stats.Transfer, RegGo, 8)
}

// pollMiss implements recvEngine.
//
//lint:hotpath
func (b *blockBufEngine) pollMiss(pr *proc.Proc) {
	// Unsuccessful poll: monitoring cost attributable to buffering.
	pr.UncachedRead(stats.Buffering, RegStatus, 8)
}

// pollHit implements recvEngine.
//
//lint:hotpath
func (b *blockBufEngine) pollHit(pr *proc.Proc) {
	pr.UncachedRead(stats.Transfer, RegStatus, 8)
}

// receive implements recvEngine: per 64-byte chunk, load the block buffer
// from the NI fifo (12-cycle overhead) and drain it into registers/cache.
//
//lint:hotpath
func (b *blockBufEngine) receive(pr *proc.Proc) *netsim.Message {
	m := b.hw.head()
	pr.Work(stats.Transfer, b.env.Cfg.BlkbufPathCycles)
	remaining := m.Size()
	for remaining > 0 {
		chunk := remaining
		if chunk > membus.BlockSize {
			chunk = membus.BlockSize
		}
		pr.BlockRead(stats.Transfer, FifoBase, b.env.Cfg.BlockBufCycles)
		pr.Work(stats.Transfer, int64((chunk+7)/8))
		remaining -= chunk
	}
	recordRecv(b.env, m)
	return b.hw.pop()
}

// retryConsume implements recvEngine: the processor consumes the returned
// message via block loads.
//
//lint:hotpath
func (b *blockBufEngine) retryConsume(pr *proc.Proc, m *netsim.Message) {
	for remaining := m.Size(); remaining > 0; remaining -= membus.BlockSize {
		pr.BlockRead(pr.P.Category, FifoBase, b.env.Cfg.BlockBufCycles)
	}
}

// repush implements sendEngine: re-push through the block buffer.
//
//lint:hotpath
func (b *blockBufEngine) repush(pr *proc.Proc, m *netsim.Message) { b.push(pr, m) }

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

// send implements sendEngine: fill the block buffer and block-store each
// 64-byte chunk into the mapped send window.
//
//lint:hotpath
func (r *reflectiveEngine) send(pr *proc.Proc, m *netsim.Message) {
	pr.Work(stats.Transfer, reflSendCycles)
	for !r.env.EP.TryAcquireOut() {
		r.env.Stats.SendBlocked++
		r.env.EP.WaitOut(pr.P)
	}
	r.push(pr, m)
	r.env.EP.Inject(m)
}

func (r *reflectiveEngine) push(pr *proc.Proc, m *netsim.Message) {
	remaining := m.Size()
	for remaining > 0 {
		chunk := remaining
		if chunk > membus.BlockSize {
			chunk = membus.BlockSize
		}
		pr.Work(stats.Transfer, int64((chunk+7)/8))
		pr.BlockWrite(stats.Transfer, FifoBase, r.env.Cfg.BlockBufCycles)
		remaining -= chunk
	}
}

// repush implements sendEngine: under FifoVM buffering a returned message
// is simply streamed through the window again (reflective memory has no
// doorbell or status protocol to replay).
//
//lint:hotpath
func (r *reflectiveEngine) repush(pr *proc.Proc, m *netsim.Message) {
	pr.Work(stats.Transfer, reflSendCycles)
	r.push(pr, m)
}
