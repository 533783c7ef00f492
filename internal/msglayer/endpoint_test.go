package msglayer

import (
	"fmt"
	"testing"

	"nisim/internal/nic"
	"nisim/internal/sim"
)

// TestResumesAndEventsPerMessageEndpoint pins the host process switches
// and the engine events of a 50-round ping-pong between two endpoints
// (100 messages) on every named NI, through Endpoint.Send and WaitUntil,
// at 8, 64 and 248 B and at 600 B, three fragments, with closed and with
// stepwise access trains.
//
// Resumes. A send runs in event context from its SendCycles to its last
// fragment's NI send, and a receive from the NI's receive to the
// dispatch's RecvCycles (chain), so the process resumes once per Send and
// once per received fragment: to run the handler, or to re-check the
// predicate. Plus the two process starts. As process steps, a message
// cost 5 to 41: the SendCycles and each FragCycles, each NI train, wait
// and DMA stage on both sides, and the RecvCycles (602 resumes at 8 B on
// every fifo NI, 502 on the coherent ones, 1502 and 4102 on UDMA at 248
// and 600 B).
//
// Events. Every hook runs in the slot its process's wakeup had, so the
// events are those of the process steps.
func TestResumesAndEventsPerMessageEndpoint(t *testing.T) {
	const rounds = 50
	payloads := []int{8, 64, 248, 600}
	want := map[nic.Kind][2][4]uint64{ // events per payload, closed and stepwise
		nic.CM5:             {{1202, 1202, 1202, 3202}, {3302, 11302, 36302, 88702}},
		nic.CM5SingleCycle:  {{1202, 1202, 1202, 3302}, {1902, 5502, 16902, 41402}},
		nic.UDMA:            {{1202, 1202, 6202, 15994}, {3302, 8902, 8202, 21994}},
		nic.AP3000:          {{1202, 1202, 1202, 3202}, {2702, 3702, 5702, 14702}},
		nic.StarTJR:         {{2510, 3710, 5966, 14492}, {2510, 3710, 5966, 14492}},
		nic.MemoryChannel:   {{2206, 3306, 5506, 13806}, {2206, 3306, 5506, 13806}},
		nic.CNI512Q:         {{2410, 3410, 5410, 13910}, {2410, 3410, 5410, 13910}},
		nic.CNI32Qm:         {{2420, 3434, 5346, 13262}, {2420, 3434, 5346, 13262}},
		nic.CNI32QmThrottle: {{2510, 3510, 5366, 13316}, {2510, 3510, 5366, 13316}},
	}
	const h = 1
	for _, k := range nic.Kinds() {
		for mode, stepwise := range []bool{false, true} {
			for i, payload := range payloads {
				k, mode, stepwise, i, payload := k, mode, stepwise, i, payload
				t.Run(fmt.Sprintf("%s/%dB/stepwise=%v", k.ShortName(), payload, stepwise), func(t *testing.T) {
					eng, eps := newPair(k, 8, stepwise)
					var got [2]int
					for n, ep := range eps {
						n, ep := n, ep
						ep.Register(h, func(*Endpoint, *Message) { got[n]++ })
						ep.pr.Bind(eng.Spawn(fmt.Sprint("n", n), func(*sim.Process) {
							for j := 0; j < rounds; j++ {
								if n == 0 {
									ep.Send(1, h, payload, 0)
								}
								ep.WaitUntil(func() bool { return got[n] > j })
								if n == 1 {
									ep.Send(0, h, payload, 0)
								}
							}
						}))
					}
					eng.Run()
					if got != [2]int{rounds, rounds} {
						t.Fatalf("delivered %v, want %d each way", got, rounds)
					}
					frags := uint64(eps[0].frags(payload))
					resumes := 2*rounds*(1+frags) + 2
					events := want[k][mode][i]
					if eng.Resumes() != resumes || eng.Events() != events {
						t.Errorf("%.2f resumes and %.2f events per message, want %.2f and %.2f",
							float64(eng.Resumes())/(2*rounds), float64(eng.Events())/(2*rounds),
							float64(resumes)/(2*rounds), float64(events)/(2*rounds))
					}
				})
			}
		}
	}
}
