// Package faults is a deterministic, seeded fault-injection subsystem for
// the simulated network. An Injector implements netsim.FaultPlane: at each
// endpoint's inject/eject points it decides — message drop, payload
// corruption (bit flips), duplication, added delay jitter, forced bounces,
// ack/bounce control-message loss, and timed link-outage windows — from a
// per-endpoint splitmix64 stream, so a run's fault pattern depends only on
// the seed and each endpoint's own traffic order. The zero Config injects
// nothing; installing no plane at all (nil) is bit-identical to a build
// without fault hooks.
package faults

import (
	"nisim/internal/netsim"
	"nisim/internal/sim"
)

// Outage is a timed link-outage window: every message injected or ejected
// at the affected endpoint within [Start, End) is destroyed.
type Outage struct {
	// Endpoint is the affected node id; -1 means every endpoint.
	Endpoint int
	Start    sim.Time
	End      sim.Time
}

func (o Outage) covers(now sim.Time, endpoint int) bool {
	return (o.Endpoint < 0 || o.Endpoint == endpoint) && now >= o.Start && now < o.End
}

// Config holds the per-message fault probabilities (each in [0, 1]) and
// the outage schedule. The zero value injects no faults.
type Config struct {
	// Seed selects the deterministic fault pattern; two runs with equal
	// seeds (and equal workloads) inject identical faults.
	Seed uint64

	Drop        float64 // data message destroyed at injection
	Corrupt     float64 // payload bit flipped in flight
	Duplicate   float64 // message delivered twice
	Delay       float64 // extra delivery jitter added
	ForceBounce float64 // returned to sender despite free buffers
	CtlDrop     float64 // ack/bounce control message destroyed
	EjectDrop   float64 // data message destroyed at ejection

	// MaxDelay is the jitter magnitude: a delayed message waits an extra
	// uniform (0, MaxDelay]. Ignored unless Delay > 0.
	MaxDelay sim.Time

	Outages []Outage
}

// Zero reports whether the configuration injects nothing, in which case
// callers should install no plane at all (nil keeps the network's lossless
// fast path).
func (c Config) Zero() bool {
	return c.Drop == 0 && c.Corrupt == 0 && c.Duplicate == 0 && c.Delay == 0 &&
		c.ForceBounce == 0 && c.CtlDrop == 0 && c.EjectDrop == 0 && len(c.Outages) == 0
}

// Mix scales one headline fault rate into per-class probabilities: class
// probability = rate * multiplier. DefaultMix is the historical faultsweep
// blend; drivers expose the multipliers as flags so each class can be
// turned up, down, or off independently.
type Mix struct {
	Drop        float64
	Corrupt     float64
	Duplicate   float64
	Delay       float64
	ForceBounce float64
	CtlDrop     float64

	// MaxDelay is the jitter magnitude installed whenever Delay is active.
	MaxDelay sim.Time
}

// DefaultMix returns the blend nisim faultsweep has always used: the headline
// rate drives drops and jitter directly, half-rate corruption, duplication,
// and control loss, quarter-rate forced bounces, 500 ns jitter ceiling.
func DefaultMix() Mix {
	return Mix{
		Drop:        1,
		Corrupt:     0.5,
		Duplicate:   0.5,
		Delay:       1,
		ForceBounce: 0.25,
		CtlDrop:     0.5,
		MaxDelay:    500 * sim.Nanosecond,
	}
}

// Config expands the mix at a headline rate into a fault Config. A zero
// rate returns the zero Config (inject nothing, keep the lossless fast
// path); per-class probabilities are clamped to [0, 1].
func (mx Mix) Config(rate float64, seed uint64) Config {
	if rate == 0 {
		return Config{}
	}
	clamp := func(p float64) float64 {
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	return Config{
		Seed:        seed,
		Drop:        clamp(rate * mx.Drop),
		Corrupt:     clamp(rate * mx.Corrupt),
		Duplicate:   clamp(rate * mx.Duplicate),
		Delay:       clamp(rate * mx.Delay),
		ForceBounce: clamp(rate * mx.ForceBounce),
		CtlDrop:     clamp(rate * mx.CtlDrop),
		MaxDelay:    mx.MaxDelay,
	}
}

// rng is a splitmix64 stream: tiny, fast, and — unlike a shared math/rand
// source — trivially forked per endpoint so decisions never depend on the
// interleaving of other endpoints' traffic.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f returns a uniform float64 in [0, 1).
func (r *rng) f() float64 { return float64(r.next()>>11) / (1 << 53) }

// Injector is a deterministic fault plane. One Injector may serve every
// endpoint of a network: each endpoint id gets its own stream.
type Injector struct {
	cfg     Config
	streams map[int]*rng
}

// New builds an injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, streams: make(map[int]*rng)}
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Prefork eagerly creates the per-endpoint streams for endpoints 0..n-1.
// Each stream is a pure function of the seed and the endpoint id, so
// preforking draws nothing and changes no verdicts; it exists so a
// partitioned simulation (machine.Config.Shards > 1) never mutates the
// stream map lazily from two shards at once — after Prefork the map is
// read-only and each stream has a single writing shard.
func (in *Injector) Prefork(n int) {
	for i := 0; i < n; i++ {
		in.stream(i)
	}
}

func (in *Injector) stream(endpoint int) *rng {
	r := in.streams[endpoint]
	if r == nil {
		// Fork a stream per endpoint: run the seed through one splitmix
		// step keyed by the id so neighboring ids decorrelate.
		r = &rng{s: (&rng{s: in.cfg.Seed ^ (uint64(endpoint)+1)*0x9e3779b97f4a7c15}).next()}
		in.streams[endpoint] = r
	}
	return r
}

func (in *Injector) outage(now sim.Time, endpoint int) bool {
	for _, o := range in.cfg.Outages {
		if o.covers(now, endpoint) {
			return true
		}
	}
	return false
}

// Inject implements netsim.FaultPlane. It always draws a fixed number of
// variates so the stream stays aligned whatever the verdict.
func (in *Injector) Inject(now sim.Time, m *netsim.Message) netsim.FaultVerdict {
	r := in.stream(m.Src)
	pDrop, pBounce, pCorrupt, pDup, pDelay, mag := r.f(), r.f(), r.f(), r.f(), r.f(), r.f()
	if in.outage(now, m.Src) {
		return netsim.FaultVerdict{Drop: true}
	}
	var v netsim.FaultVerdict
	switch {
	case pDrop < in.cfg.Drop:
		v.Drop = true
	case pBounce < in.cfg.ForceBounce:
		v.ForceBounce = true
	default:
		v.Corrupt = pCorrupt < in.cfg.Corrupt
		v.Duplicate = pDup < in.cfg.Duplicate
		if pDelay < in.cfg.Delay && in.cfg.MaxDelay > 0 {
			v.Delay = sim.Picosecond + sim.Time(mag*float64(in.cfg.MaxDelay-sim.Picosecond))
		}
	}
	return v
}

// Eject implements netsim.FaultPlane: receiver-side drops and outages.
func (in *Injector) Eject(now sim.Time, m *netsim.Message) netsim.FaultVerdict {
	r := in.stream(m.Dst)
	p := r.f()
	if in.outage(now, m.Dst) || p < in.cfg.EjectDrop {
		return netsim.FaultVerdict{Drop: true}
	}
	return netsim.FaultVerdict{}
}

// DropControl implements netsim.FaultPlane for the ack/bounce control
// messages the receiver emits; it draws from the receiver's stream.
func (in *Injector) DropControl(now sim.Time, kind netsim.ControlKind, m *netsim.Message) bool {
	r := in.stream(m.Dst)
	p := r.f()
	if in.outage(now, m.Dst) {
		return true
	}
	return p < in.cfg.CtlDrop
}
