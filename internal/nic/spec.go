package nic

import "fmt"

// This file defines the NI design space of the paper's §4 as data: a Spec
// names one point in the (send transfer engine × receive transfer engine ×
// buffering policy) cross product, and the composer in composed.go builds a
// working NI from any valid Spec. The seven NIs of Table 2 (plus the two §6
// variants) are just the named points; the rest of the space is reachable
// through nisim designspace.

// Engine identifies one transfer-engine implementation: the component that
// owns the bus-transaction idiom moving message bytes between the processor
// (or memory) and the network.
//
//lint:enum
type Engine int

// The transfer engines. Each corresponds to one data-transfer parameter
// setting of Table 2 (transfer size × transfer manager × source/dest).
const (
	// EngineNone marks an unset engine; never valid.
	EngineNone Engine = iota
	// UncachedWordEngine is the CM-5 idiom: the processor moves every
	// word with uncached loads/stores through a two-word fifo window.
	UncachedWordEngine
	// RegisterWordEngine is the single-cycle variant of Figure 4: the same
	// word loop, but the NI is processor-register-mapped, so every access
	// is one cycle and no bus transaction.
	RegisterWordEngine
	// BlockBufEngine is the AP3000 idiom: processor-managed 64-byte block
	// loads/stores between an on-chip block buffer and the NI fifo.
	BlockBufEngine
	// ReflectiveEngine is the Memory Channel send idiom: stores to a mapped
	// page stream to the NI as block writes with no status-register checks.
	// Send-only.
	ReflectiveEngine
	// UDMAEngine is the Princeton idiom: small messages go through the
	// uncached word window; large ones through user-initiated, NI-managed
	// block DMA.
	UDMAEngine
	// CoherentEngine is the CNI idiom: the NI is a coherent bus device
	// moving 64-byte blocks to/from cacheable queue memory on its own.
	CoherentEngine
	// RDMAEngine is the one-sided remote-DMA idiom (MPICH2-over-InfiniBand):
	// the processor posts a descriptor naming pinned user memory and the NI
	// reads the data with coherent block fetches and moves it itself, with a
	// registration/pinning cost amortized across repeated targets. Send-only;
	// it also exposes one-sided put/get (RDMA) that bypasses the target's
	// receive ring entirely. Receive rides a coherent ring engine.
	RDMAEngine
	numEngines
)

// engineNames holds each Engine's name, indexed by the Engine.
var engineNames = [...]string{
	UncachedWordEngine: "uword", RegisterWordEngine: "regword", BlockBufEngine: "blkbuf",
	ReflectiveEngine: "reflective", UDMAEngine: "udma", CoherentEngine: "coherent", RDMAEngine: "rdma",
}

func (e Engine) String() string { return enumName(engineNames[:], int(e), "engine") }

// enumName returns names[i], or prefix followed by i for a value outside
// the table or without a name.
func enumName(names []string, i int, prefix string) string {
	if i < 0 || i >= len(names) || names[i] == "" {
		return fmt.Sprintf("%s%d", prefix, i)
	}
	return names[i]
}

// fifoFamily reports whether e moves data through the shared fifo hardware
// (device SRAM window + uncached status registers) rather than through
// coherent queue memory.
func (e Engine) fifoFamily() bool {
	switch e { //lint:allow exhaustive membership predicate: engines absent from the case list are queue-memory family by definition
	case UncachedWordEngine, RegisterWordEngine, BlockBufEngine, ReflectiveEngine, UDMAEngine:
		return true
	}
	return false
}

// Buffering identifies one buffering policy: the component that owns where
// incoming messages wait, who bounces them when space runs out, and how
// storage is reclaimed (Table 2's buffering parameters: location ×
// processor involvement).
//
//lint:enum
type Buffering int

// The buffering policies.
const (
	// BufferingNone marks an unset policy; never valid.
	BufferingNone Buffering = iota
	// FifoVM buffers messages in the NI fifo (physically the incoming
	// flow-control buffers) with VM fallback: overflow returns messages to
	// the sender, whose *processor* must notice and re-push them.
	FifoVM
	// MemoryRing buffers messages in a coherent ring homed in main memory
	// (StarT-JR, Memory Channel receive): plentiful, no processor
	// involvement, every block travels through DRAM.
	MemoryRing
	// NIRing buffers messages in a coherent ring homed in NI DRAM
	// (CNI_512Q): bounded, no processor involvement, blocks stay on the
	// device until consumed.
	NIRing
	// NICachedRing buffers messages in a memory-homed ring cached in NI
	// SRAM (CNI_32Q_m): overflow bypasses to memory, consumed blocks die
	// in the cache without writeback.
	NICachedRing
	numBufferings
)

// bufferingNames holds each Buffering's name, indexed by the Buffering.
var bufferingNames = [...]string{FifoVM: "fifovm", MemoryRing: "memring", NIRing: "niring", NICachedRing: "nicache"}

func (b Buffering) String() string { return enumName(bufferingNames[:], int(b), "buffering") }

// RefuseAction is what an overload policy does with an arrival it refuses
// at the admission watermark.
//
//lint:enum
type RefuseAction int

const (
	// RefuseBounce returns the refused arrival to its sender on the second
	// network — the paper's flow-control verdict, applied early.
	RefuseBounce RefuseAction = iota
	// RefuseDrop destroys the refused arrival. In a lossless network this
	// silently loses the message (the watchdog names the stranded sender);
	// under the reliability layer the sender retries or abandons.
	RefuseDrop
	numRefuseActions
)

// refuseNames holds each RefuseAction's name, indexed by the action.
var refuseNames = [...]string{RefuseBounce: "bounce", RefuseDrop: "drop"}

func (r RefuseAction) String() string { return enumName(refuseNames[:], int(r), "refuse") }

// EvictChoice is whether an over-watermark arrival may displace buffered
// work instead of being refused.
//
//lint:enum
type EvictChoice int

const (
	// EvictNone refuses over-watermark arrivals outright.
	EvictNone EvictChoice = iota
	// EvictOldest destroys the oldest undelivered buffered message to make
	// room, then admits the arrival (drop-from-head: newest data survives).
	EvictOldest
	numEvictChoices
)

// OverloadPolicy is the declarative admission-control policy of a Spec:
// what the receive side does with arrivals once buffered occupancy crosses
// a watermark. The zero value disables admission control — every arrival
// takes the paper's accept-or-flow-control-bounce path, bit-identically.
type OverloadPolicy struct {
	// AdmitPct is the occupancy watermark in percent of receive-buffer
	// capacity: arrivals are admitted while occupancy < AdmitPct% of
	// capacity. 0 disables the policy entirely; 100 admits until full.
	AdmitPct int
	// ResumePct, when positive, adds hysteresis to the watermark: once an
	// arrival has been refused, the policy keeps refusing until occupancy
	// falls below ResumePct% of capacity, instead of flapping between admit
	// and refuse one message either side of AdmitPct. Must not exceed
	// AdmitPct. 0 keeps the single-threshold behavior bit-identical.
	ResumePct int
	// Refuse is the fate of a refused arrival: bounce (default) or drop.
	Refuse RefuseAction
	// Evict, when EvictOldest, displaces the oldest buffered message
	// instead of refusing the arrival. Requires Refuse == RefuseDrop (an
	// evicting policy is a drop-class policy: it destroys admitted data).
	Evict EvictChoice
	// ControlBase, when positive, exempts control-plane traffic: arrivals
	// whose Handler >= ControlBase bypass the watermark and are always
	// admitted, so barriers and protocol messages survive data overload.
	ControlBase int
}

// Zero reports whether the policy disables admission control.
func (p OverloadPolicy) Zero() bool { return p.AdmitPct == 0 }

// Spec is one point in the NI design space: a send transfer engine, a
// receive transfer engine, and a buffering policy, plus the optional
// software send-throttle of Table 5's CNI_32Q_m+Throttle and an optional
// overload-admission policy.
type Spec struct {
	Send      Engine
	Recv      Engine
	Buffering Buffering
	// Throttle enables the software credit scheme that keeps no more
	// unconsumed blocks outstanding per destination than the receiver's NI
	// cache holds. Requires a coherent send engine over NICachedRing.
	Throttle bool
	// Overload is the admission-control policy applied to arrivals at this
	// NI's endpoint. The zero value preserves lossless accept-or-bounce.
	Overload OverloadPolicy
}

// Name returns a compact identifier for the spec: the Kind short name for
// the nine named design points, or "send+recv.buffering" for cross-product
// specs, with a "+ovPCTr[e][hN][cN]" suffix when an overload policy is set
// (PCT the watermark, r the refuse action's initial, e eviction, hN the
// hysteresis resume threshold, cN the control-exemption handler base).
func (s Spec) Name() string {
	base := s
	base.Overload = OverloadPolicy{}
	var n string
	if k := KindOf(base); k != Custom {
		n = k.ShortName()
	} else {
		n = fmt.Sprintf("%s+%s.%s", s.Send, s.Recv, s.Buffering)
		if s.Throttle {
			n += "+throttle"
		}
	}
	if !s.Overload.Zero() {
		n += fmt.Sprintf("+ov%d%c", s.Overload.AdmitPct, s.Overload.Refuse.String()[0])
		if s.Overload.Evict == EvictOldest {
			n += "e"
		}
		if s.Overload.ResumePct > 0 {
			n += fmt.Sprintf("h%d", s.Overload.ResumePct)
		}
		if s.Overload.ControlBase > 0 {
			n += fmt.Sprintf("c%d", s.Overload.ControlBase)
		}
	}
	return n
}

// Validate reports whether the spec is a buildable design point. The rules
// encode the physical constraints of the components:
//
//   - ReflectiveEngine has no receive side (reflective memory is write-only).
//   - RDMAEngine is send-only too, and its one-sided completions deposit
//     straight into user memory, so it requires a coherent receive engine
//     over ring buffering — the fifo window plays no part in its path.
//   - FifoVM buffering services messages through the fifo hardware, so the
//     receive engine must be fifo-family; a coherent or RDMA send engine
//     buffers outbound messages in its own ring/descriptor queue, which
//     FifoVM does not model.
//   - The ring policies deposit messages into coherent queue memory, which
//     only the coherent engine can read, so ring buffering requires a
//     coherent receive engine.
//   - Throttle is the CNI_32Q_m credit scheme: it meters the receiver's NI
//     cache, so it requires a coherent send engine over NICachedRing.
func (s Spec) Validate() error {
	if s.Send <= EngineNone || s.Send >= numEngines {
		return fmt.Errorf("nic: invalid send engine %d", int(s.Send))
	}
	if s.Recv <= EngineNone || s.Recv >= numEngines {
		return fmt.Errorf("nic: invalid recv engine %d", int(s.Recv))
	}
	if s.Buffering <= BufferingNone || s.Buffering >= numBufferings {
		return fmt.Errorf("nic: invalid buffering policy %d", int(s.Buffering))
	}
	if s.Recv == ReflectiveEngine {
		return fmt.Errorf("nic: %s is send-only", ReflectiveEngine)
	}
	if s.Recv == RDMAEngine {
		return fmt.Errorf("nic: %s is send-only", RDMAEngine)
	}
	if s.Buffering == FifoVM {
		if !s.Recv.fifoFamily() {
			return fmt.Errorf("nic: %s buffering requires a fifo-family recv engine, got %s", s.Buffering, s.Recv)
		}
		if s.Send == CoherentEngine || s.Send == RDMAEngine {
			return fmt.Errorf("nic: %s send engine requires ring buffering, got %s", s.Send, s.Buffering)
		}
	} else if s.Recv != CoherentEngine {
		return fmt.Errorf("nic: %s buffering requires the %s recv engine, got %s", s.Buffering, CoherentEngine, s.Recv)
	}
	if s.Throttle && (s.Send != CoherentEngine || s.Buffering != NICachedRing) {
		return fmt.Errorf("nic: throttle requires %s send over %s", CoherentEngine, NICachedRing)
	}
	return s.Overload.validate()
}

// validate checks the overload policy's internal consistency. The zero
// value always validates (admission control off).
func (p OverloadPolicy) validate() error {
	if p.AdmitPct < 0 || p.AdmitPct > 100 {
		return fmt.Errorf("nic: overload AdmitPct %d outside [0, 100]", p.AdmitPct)
	}
	if p.Refuse < 0 || p.Refuse >= numRefuseActions {
		return fmt.Errorf("nic: invalid overload refuse action %d", int(p.Refuse))
	}
	if p.Evict < 0 || p.Evict >= numEvictChoices {
		return fmt.Errorf("nic: invalid overload evict choice %d", int(p.Evict))
	}
	if p.ResumePct < 0 || p.ResumePct > 100 {
		return fmt.Errorf("nic: overload ResumePct %d outside [0, 100]", p.ResumePct)
	}
	if p.AdmitPct == 0 {
		if p.Refuse != RefuseBounce || p.Evict != EvictNone || p.ControlBase != 0 || p.ResumePct != 0 {
			return fmt.Errorf("nic: overload policy fields require AdmitPct > 0")
		}
		return nil
	}
	if p.ResumePct > p.AdmitPct {
		return fmt.Errorf("nic: overload ResumePct %d exceeds AdmitPct %d (hysteresis band would invert)", p.ResumePct, p.AdmitPct)
	}
	if p.Evict == EvictOldest && p.Refuse != RefuseDrop {
		return fmt.Errorf("nic: %v eviction requires the drop refuse action (eviction destroys admitted data)", EvictOldest)
	}
	if p.ControlBase < 0 {
		return fmt.Errorf("nic: negative overload ControlBase %d", p.ControlBase)
	}
	return nil
}

// Custom is the Kind reported by NIs composed from a Spec that matches none
// of the nine named design points.
const Custom Kind = -1

// SpecFor returns the design-space decomposition of a named Kind (the
// Table 2 classification as a Spec).
func SpecFor(kind Kind) Spec {
	if !kind.named() {
		panic(fmt.Sprintf("nic: no spec for kind %d", int(kind)))
	}
	return namedKinds[kind].spec
}

// KindOf returns the named Kind a spec reproduces, or Custom when the spec
// is a cross-product point the paper did not study.
func KindOf(s Spec) Kind {
	for k := Kind(0); k < numKinds; k++ {
		if SpecFor(k) == s {
			return k
		}
	}
	return Custom
}

// AllSpecs enumerates every valid spec in the design space in a fixed,
// deterministic order: all (send, recv, buffering) triples that Validate,
// plus the throttled variant of each triple that supports it.
func AllSpecs() []Spec {
	var out []Spec
	for send := Engine(1); send < numEngines; send++ {
		for recv := Engine(1); recv < numEngines; recv++ {
			for buf := Buffering(1); buf < numBufferings; buf++ {
				s := Spec{Send: send, Recv: recv, Buffering: buf}
				if s.Validate() == nil {
					out = append(out, s)
				}
				s.Throttle = true
				if s.Validate() == nil {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// CrossSpecs enumerates the valid specs beyond the nine named design
// points, in the same deterministic order as AllSpecs.
func CrossSpecs() []Spec {
	var out []Spec
	for _, s := range AllSpecs() {
		if KindOf(s) == Custom {
			out = append(out, s)
		}
	}
	return out
}
