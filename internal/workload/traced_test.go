package workload

import (
	"io"
	"reflect"
	"testing"

	"nisim/internal/machine"
	"nisim/internal/nic"
	"nisim/internal/trace"
)

// TestTracedRunIsByteIdentical runs an application cell on each fifo NI
// traced and untraced. A traced bus runs the processor's access trains
// step by step, an untraced one on a processor-only bus in closed form, so
// the two runs take different paths through every fifo-window transfer
// and must still produce deeply equal statistics.
func TestTracedRunIsByteIdentical(t *testing.T) {
	p := Params{Iters: 0.2}
	for _, kind := range []nic.Kind{nic.CM5, nic.CM5SingleCycle, nic.AP3000, nic.UDMA} {
		for _, app := range []App{Appbt, Em3d} {
			cfg := machine.DefaultConfig(kind, 8)
			cfg.Nodes = 4
			plain := Run(cfg, app, p)
			if plain.Nodes[0].MessagesSent == 0 {
				t.Fatalf("%s/%s sent no messages", kind.ShortName(), app)
			}
			cfg.Tracer = trace.New(io.Discard)
			if traced := Run(cfg, app, p); !reflect.DeepEqual(plain, traced) {
				t.Errorf("%s/%s: traced stats differ from untraced", kind.ShortName(), app)
			}
		}
	}
}
