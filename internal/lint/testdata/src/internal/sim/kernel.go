// Package sim stands in for the simulation kernel itself. The kernel's
// processes are coroutines switched by the engine, so it needs no
// goroutines or channels and nogoroutine checks it like model code.
package sim

func run(fns []func()) {
	done := make(chan struct{}) // want `channel type`
	for _, fn := range fns {
		fn := fn
		go func() { fn(); done <- struct{}{} }() // want `goroutine outside the partition layer` `channel send`
	}
	for range fns {
		<-done // want `channel receive`
	}
}
