package workload

import (
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"nisim/internal/machine"
	"nisim/internal/nic"
	"nisim/internal/stats"
	"nisim/internal/trace"
)

// TestCategoryTimePerNode pins each node's processor time in every
// category on 16-node one-buffer dsmc cells, where blocked sends spin and
// re-push bounced messages: the committed reports carry only fractions and
// machine totals, which a charge that moved between two nodes or two
// categories leaves unchanged. The pin is the SHA-256 of the per-node
// lines plus the per-category totals, in ps. A traced run, whose access
// trains run stepwise, must charge the same.
func TestCategoryTimePerNode(t *testing.T) {
	for _, c := range []struct {
		kind nic.Kind
		sum  string
		tot  [3]int64 // compute, transfer, buffering
	}{
		{nic.CM5, "27cdbea6346feef3619d4cd599943ffb0c127a8a89550e48ff12d2b8d74c0ca2", [3]int64{2145600000, 2819980000, 263850000}},
		{nic.AP3000, "35a6eb316cf953eb3ca693bca3ca2d9b257638799b295a9f2b2963e25aa7377c", [3]int64{1663273000, 983061000, 388078000}},
		{nic.UDMA, "9e41acf8964692c1173eeaff0b33b8b248317ec67fe6a3a0781f7c7bef7694f1", [3]int64{2041952000, 1465964000, 730026000}},
	} {
		c := c
		t.Run(c.kind.ShortName(), func(t *testing.T) {
			cfg := machine.DefaultConfig(c.kind, 1)
			st := Run(cfg, Dsmc, Params{Iters: 0.1})
			if st.Total().Retries == 0 {
				t.Fatal("no software re-push: the cell proves nothing")
			}
			var b strings.Builder
			var tot [3]int64
			for i, n := range st.Nodes {
				fmt.Fprintf(&b, "node %d: %d %d %d\n", i, n.TimeIn[stats.Compute], n.TimeIn[stats.Transfer], n.TimeIn[stats.Buffering])
				for j := range tot {
					tot[j] += int64(n.TimeIn[j])
				}
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); sum != c.sum || tot != c.tot {
				t.Errorf("per-node category times hash %s, totals %v; want %s, %v\n%s", sum, tot, c.sum, c.tot, b.String())
			}
			cfg.Tracer = trace.New(io.Discard)
			if traced := Run(cfg, Dsmc, Params{Iters: 0.1}); !reflect.DeepEqual(st, traced) {
				t.Error("traced stats differ from untraced")
			}
		})
	}
}
