package nic

import "nisim/internal/netsim"

// Overload admission control: the Spec's OverloadPolicy compiled into the
// endpoint's Admit hook. The hook runs at the network's delivery decision
// point — after the checksum gate, before the flow-control accept/bounce —
// so a refusing policy spends no receive-side buffering or bus work on
// traffic it will not keep. The composed NI supplies the occupancy signal
// (fifo: flow-control buffers held; coherent: receive-ring blocks live)
// and the eviction primitive; the policy itself is pure arithmetic on the
// watermark, allocation-free on every path.

// installOverload wires the spec's overload policy into the endpoint.
// A zero policy installs nothing: Admit stays nil and the network's
// lossless fast path is bit-identical to a build without the hook.
//
// With ResumePct set the watermark gains hysteresis: the first refusal
// latches the policy into a refusing state that persists until occupancy
// drains below the (lower) resume threshold. A single-threshold policy
// sitting exactly at the watermark flaps — each consumed block re-admits
// one arrival that pushes occupancy straight back over the line, so the
// receiver runs permanently at the cliff edge and every admitted message
// observes worst-case queueing. The hysteresis band forces a real drain
// before service resumes. ResumePct == 0 keeps the latch permanently
// disengaged and is bit-identical to the single-threshold policy.
func (x *composed) installOverload() {
	p := x.spec.Overload
	if p.Zero() {
		return
	}
	refusing := false
	x.env.EP.Admit = func(m *netsim.Message) netsim.AdmitDecision {
		if p.ControlBase > 0 && m.Handler >= p.ControlBase {
			return netsim.AdmitAccept
		}
		occ, cap := x.occupancy()
		if refusing && occ*100 < cap*p.ResumePct {
			refusing = false
		}
		if !refusing && occ*100 < cap*p.AdmitPct {
			return netsim.AdmitAccept
		}
		if p.ResumePct > 0 && !refusing {
			refusing = true
			if x.env.Stats != nil {
				x.env.Stats.AdmitFlaps++
			}
		}
		if tr := x.env.Trace; tr != nil {
			tr("overload refuse src=%d size=%dB occ=%d/%d action=%s", m.Src, m.Size(), occ, cap, p.Refuse)
		}
		if p.Evict == EvictOldest && x.evictOldest() {
			if x.env.Stats != nil {
				x.env.Stats.AdmitEvictions++
			}
			return netsim.AdmitAccept
		}
		if p.Refuse == RefuseDrop {
			return netsim.AdmitDrop
		}
		return netsim.AdmitBounce
	}
}

// occupancy returns the receive-side buffered load and its capacity, both
// in the buffering layer's native unit (messages for the fifo policies,
// 64-byte blocks for the coherent rings). Capacity may be netsim.Infinite
// for unbounded fifo buffering; the watermark comparison stays in range
// because occupancy is bounded by real traffic.
func (x *composed) occupancy() (occ, capacity int) {
	if x.coh != nil {
		return int(x.coh.recvRing.tail - x.coh.recvRing.head), int(x.coh.recvRing.cap)
	}
	return x.hw.recvQ.len(), x.env.EP.Buffers()
}

// evictOldest destroys the oldest undelivered buffered message to make
// room for a new arrival, returning false when nothing is evictable (the
// arrival is then refused normally). The eviction is NI-side work: no
// processor cycles are charged, mirroring the paper's "no processor
// involvement" buffering column.
func (x *composed) evictOldest() bool {
	if x.coh != nil {
		c := x.coh
		if c.deliverable.len() == 0 {
			return false
		}
		e := c.deliverable.pop()
		c.retire(e)
		if tr := x.env.Trace; tr != nil {
			tr("overload evict src=%d blocks=%d", e.m.Src, e.nb)
		}
		return true
	}
	if x.hw.recvQ.len() == 0 {
		return false
	}
	m := x.hw.pop()
	if tr := x.env.Trace; tr != nil {
		tr("overload evict src=%d size=%dB", m.Src, m.Size())
	}
	return true
}
