package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nisim/internal/sweep"
)

// ciArgs sizes every registered grid for TestGridIdentity. A grid missing
// here fails the test, so a newly registered grid is gated automatically.
var ciArgs = map[string][]string{
	"table1":      {},
	"table2":      {},
	"table4":      {"-scale", "0.05"},
	"table5":      {"-quick"},
	"fig1":        {"-scale", "0.05"},
	"fig3":        {"-scale", "0.02"},
	"fig4":        {"-scale", "0.05"},
	"logp":        {},
	"ablate":      {"-scale", "0.05"},
	"designspace": {"-quick"},
	"chaos":       {"-quick"},
	"faultsweep":  {"-rates", "0,0.05", "-msgs", "40"},
	"scale":       {"-scale", "0.05"},
	"scalebig":    {"-sizes", "8", "-scale", "0.05"},
	// Exempt: benchdump is the other grids' cells at -quick size, and
	// `make bench-json` runs it with -baseline, which gates its jobs=N vs
	// jobs=1 canonical identity on every CI run.
	"benchdump": nil,
}

// canonical reads the report a run wrote to path, checks its header and
// that no cell failed outside the watchdog, and returns its canonical
// JSON, stripped of timing and of the source revision.
func canonical(t *testing.T, name, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep sweep.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != sweep.Schema || rep.Experiment != name {
		t.Errorf("report is %s/%q, want %s/%q", rep.Schema, rep.Experiment, sweep.Schema, name)
	}
	for _, r := range rep.Results {
		// A watchdog diagnostic ("machine: no network progress ...") is a
		// legitimate cell outcome; a hang or any other failure is not.
		if r.TimedOut || (r.Err != "" && !strings.Contains(r.Err, "machine:")) {
			t.Errorf("%s: timed_out=%v err=%q", r.ID, r.TimedOut, r.Err)
		}
	}
	rep.GitRev = ""
	canon, err := rep.Canonical().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// TestGridIdentity is the determinism gate for every registered grid: run
// at its CI size with eight workers, and for grids that take -shards also
// on four engine shards, its text and canonical JSON must be byte-identical
// to a serial, single-shard run. Each simulation is single-threaded and
// share-nothing, results are collected in submission order, and
// everything host-dependent lives in the timing sidecar that Canonical
// strips, so any difference means a concurrency leak into the model.
//
// The parallel run is in-process, so under `make ci` the race detector
// watches the worker pool, the shard workers, and the partition barrier.
// The serial reference runs in a nisim binary built without the detector:
// it needs no watching, instrumented it would double the test's cost, and
// the comparison then also spans two builds and two processes.
func TestGridIdentity(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "nisim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, g := range grids {
		args, ok := ciArgs[g.name]
		if !ok {
			t.Errorf("grid %s has no CI-sized arguments in ciArgs", g.name)
			continue
		}
		t.Run(g.name, func(t *testing.T) {
			if args == nil {
				t.Skip("exempt; gated by make bench-json -baseline")
			}
			t.Parallel()
			dir := t.TempDir()
			serial := append([]string{g.name}, args...)
			out, err := exec.Command(bin, append(serial, "-jobs", "1", "-json", filepath.Join(dir, "serial.json"))...).Output()
			if err != nil {
				t.Fatalf("nisim %v: %v", serial, err)
			}
			text, canon := string(out), canonical(t, g.name, filepath.Join(dir, "serial.json"))

			variant := []string{"-jobs", "8"}
			fs := flag.NewFlagSet(g.name, flag.ContinueOnError)
			g.setup(fs)
			if fs.Lookup("shards") != nil {
				variant = append(variant, "-shards", "4")
			}
			var stdout, stderr bytes.Buffer
			vargs := append(append(append([]string{}, args...), variant...), "-json", filepath.Join(dir, "variant.json"))
			if status := runGrid(g.name, vargs, &stdout, &stderr); status != 0 {
				t.Fatalf("nisim %s %v: exit %d: %s", g.name, vargs, status, stderr.String())
			}
			if vtext := stdout.String(); vtext != text {
				t.Errorf("%v text differs from serial:\nserial:\n%s\n%v:\n%s", variant, text, variant, vtext)
			}
			if vcanon := canonical(t, g.name, filepath.Join(dir, "variant.json")); !bytes.Equal(vcanon, canon) {
				t.Errorf("%v canonical JSON differs from serial:\nserial:\n%s\n%v:\n%s", variant, canon, variant, vcanon)
			}
		})
	}
	for name := range ciArgs {
		if !registered(name) {
			t.Errorf("ciArgs names %s, which is not a registered grid", name)
		}
	}
}

// TestChaosResultsFresh reruns the chaos grid at -quick, the size `make
// results` commits, and checks that its results equal the committed
// chaos_results.json. The grid runs every named spec, all three ring
// bufferings and the RDMA protocol grid, so a change to simulated behaviour
// that forgot to regenerate the artifact fails here.
func TestChaosResultsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.json")
	var stdout, stderr bytes.Buffer
	if status := runGrid("chaos", []string{"-quick", "-json", path}, &stdout, &stderr); status != 0 {
		t.Fatalf("nisim chaos -quick: exit %d: %s", status, stderr.String())
	}
	fresh := canonical(t, "chaos", path)
	committed := canonical(t, "chaos", filepath.Join("..", "..", "chaos_results.json"))
	if !bytes.Equal(fresh, committed) {
		t.Errorf("chaos -quick results differ from the committed chaos_results.json; regenerate it with `make results`")
	}
}

// TestBenchResultsFresh reruns the evaluation grid at -quick, the size
// `make bench-json` commits, and checks that its results equal the
// committed BENCH_results.json. Its 284 cells include the coherent
// engine's ablations (send prefetch, NI-cache bypass, dead-message
// suppression, NI-cache size), which no other gate runs, so a change to
// simulated behaviour that forgot to regenerate the artifact fails here.
// It takes seconds, so -short skips it.
func TestBenchResultsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns the 284-cell evaluation grid")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	if status := runGrid("benchdump", []string{"-quick", "-json", path}, &stdout, &stderr); status != 0 {
		t.Fatalf("nisim benchdump -quick: exit %d: %s", status, stderr.String())
	}
	fresh := canonical(t, "benchdump", path)
	committed := canonical(t, "benchdump", filepath.Join("..", "..", "BENCH_results.json"))
	if !bytes.Equal(fresh, committed) {
		t.Errorf("benchdump -quick results differ from the committed BENCH_results.json; regenerate it with `make bench-json`")
	}
}

func registered(name string) bool {
	for _, g := range grids {
		if g.name == name {
			return true
		}
	}
	return false
}

// TestGridUsageErrors pins the driver's usage errors: a bad flag value or
// an unknown grid exits 2 with one line on stderr and runs nothing.
func TestGridUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"faultsweep", "-rates", "abc"}, `bad loss rate "abc"`},
		{[]string{"faultsweep", "-rates", "1.5"}, `bad loss rate "1.5"`},
		{[]string{"scalebig", "-sizes", "1"}, `bad -sizes entry "1"`},
		{[]string{"scalebig", "-sizes", "x"}, `bad -sizes entry "x"`},
		{[]string{"table6"}, `unknown grid "table6" (grids: table1 table2 `},
	} {
		var stdout, stderr bytes.Buffer
		status := runGrid(tc.args[0], tc.args[1:], &stdout, &stderr)
		if status != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", tc.args, status, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line containing %q", tc.args, msg, tc.want)
		}
	}
}
