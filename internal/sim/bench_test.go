package sim

import "testing"

// BenchmarkScheduleTyped is the hot-path idiom: shared handler, pointer
// receiver, pooled record — zero allocations per event.
func BenchmarkScheduleTyped(b *testing.B) {
	e := NewEngine()
	type state struct{ n int }
	s := &state{}
	var tick Handler
	tick = func(recv any, _ uint64) {
		st := recv.(*state)
		st.n++
		if st.n < b.N {
			e.AfterEvent(Nanosecond, tick, st, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.AfterEvent(Nanosecond, tick, s, 0)
	e.Run()
}

// BenchmarkTimerArmStop measures the cancellation path the reliability
// layer exercises on every acknowledged send: arm a timer, then stop it.
func BenchmarkTimerArmStop(b *testing.B) {
	e := NewEngine()
	h := Handler(func(any, uint64) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.AfterTimer(Nanosecond, h, nil, 0)
		tm.Stop()
	}
}

// BenchmarkProcessYield measures the cooperative-process round trip: one
// yield schedules one typed resume event and switches to the engine and
// back.
func BenchmarkProcessYield(b *testing.B) {
	e := NewEngine()
	e.Spawn("yielder", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Drain()
}
