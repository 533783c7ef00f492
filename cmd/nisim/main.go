// Command nisim is the simulator's one driver.
//
// With a grid name it sweeps one experiment grid (see grids.go) through the
// orchestrator, prints its text table, and with -json writes the
// nisim-sweep/v1 report, whose experiment field is the grid name:
//
//	nisim table5 -quick
//	nisim fig3 -scale 0.1 -jobs 8 -json fig3.json
//	nisim scalebig -sizes 64 -scale 0.2 -shards 4 -baseline
//
// Every grid shares -jobs, -timeout, -json, -baseline, -cpuprofile and
// -memprofile; `nisim <grid> -h` lists the grid's own flags.
//
// Without a grid name it runs a single simulation: pick an NI design, an
// application (or microbenchmark), and a flow-control buffer count, and get
// the execution time, processor-time breakdown, and NI event counts. The
// run goes through the sweep orchestrator so -timeout can bound it; -json
// here emits the single-run result, not a sweep report.
//
//	nisim -ni cni32qm -app em3d -bufs 8
//	nisim -ni ap3000 -rtt 64
//	nisim -ni ap3000 -bw 4096
//	nisim -list
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nisim"
	"nisim/internal/profiling"
	"nisim/internal/sweep"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		os.Exit(runGrid(os.Args[1], os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		ni      = flag.String("ni", "cni32qm", "NI design (see -list)")
		app     = flag.String("app", "em3d", "macrobenchmark to run (see -list)")
		bufs    = flag.Int("bufs", 8, "flow-control buffers per direction (-1 = infinite)")
		nodes   = flag.Int("nodes", 16, "machine size")
		scale   = flag.Float64("scale", 1, "iteration scale factor")
		rtt     = flag.Int("rtt", 0, "instead: round-trip microbenchmark with this payload (bytes)")
		bw      = flag.Int("bw", 0, "instead: bandwidth microbenchmark with this payload (bytes)")
		list    = flag.Bool("list", false, "list NIs, applications, and grids")
		tracef  = flag.String("trace", "", "write a bus-transaction trace to this file")
		asJSON  = flag.Bool("json", false, "emit the result as JSON")
		timeout = flag.Duration("timeout", 0, "abort the run after this much wall time (0 = no limit)")
	)
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	die(err)
	defer stopProf()

	if *list {
		fmt.Println("NI designs: ")
		for _, k := range nisim.NIKinds() {
			fmt.Printf("  %s\n", k)
		}
		fmt.Println("applications:")
		for _, a := range nisim.Apps() {
			fmt.Printf("  %s\n", a)
		}
		fmt.Println("grids (nisim <grid> -h for flags):")
		for _, g := range grids {
			fmt.Printf("  %-12s %s\n", g.name, g.doc)
		}
		return
	}

	kind := nisim.NIKind(*ni)
	switch {
	case *rtt > 0:
		var us float64
		var err error
		timed(*timeout, fmt.Sprintf("nisim/rtt/%s/%dB", kind, *rtt), func() {
			us, err = nisim.RoundTripMicros(kind, *bufs, *rtt)
		})
		die(err)
		fmt.Printf("%s: %dB payload round trip = %.2f us\n", kind, *rtt, us)
	case *bw > 0:
		var mb float64
		var err error
		timed(*timeout, fmt.Sprintf("nisim/bw/%s/%dB", kind, *bw), func() {
			mb, err = nisim.BandwidthMBps(kind, *bufs, *bw)
		})
		die(err)
		fmt.Printf("%s: %dB payload bandwidth = %.0f MB/s\n", kind, *bw, mb)
	default:
		cfg := nisim.Config{NI: kind, FlowBuffers: *bufs, Nodes: *nodes}
		if *tracef != "" {
			f, err := os.Create(*tracef)
			die(err)
			defer f.Close()
			cfg.TraceTo = f
		}
		var res nisim.Result
		var err error
		timed(*timeout, fmt.Sprintf("nisim/%s/%s", kind, *app), func() {
			res, err = nisim.RunAppScaled(cfg, *app, *scale)
		})
		die(err)
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			die(enc.Encode(res))
			return
		}
		fmt.Printf("%s on %s (%d nodes, %d buffers): %.1f us\n", *app, kind, *nodes, *bufs, res.ExecMicros)
		fmt.Printf("  compute %.1f%%  transfer %.1f%%  buffering %.1f%%\n",
			100*res.Breakdown.Compute, 100*res.Breakdown.Transfer, 100*res.Breakdown.Buffering)
		fmt.Printf("  messages %d  fragments %d  bounces %d  retries %d\n",
			res.Counters.MessagesSent, res.Counters.FragmentsSent, res.Counters.Bounces, res.Counters.Retries)
		fmt.Printf("  bus transactions %d (cache-to-cache %d, memory-to-cache %d, uncached %d)\n",
			res.Counters.BusTransactions, res.Counters.CacheToCache, res.Counters.MemToCache, res.Counters.UncachedAccesses)
		if res.Counters.NICacheHits+res.Counters.NICacheMisses > 0 {
			fmt.Printf("  NI cache: %d hits, %d misses, %d bypasses, %d prefetches\n",
				res.Counters.NICacheHits, res.Counters.NICacheMisses, res.Counters.NIBypasses, res.Counters.Prefetches)
		}
	}
}

// runGrid runs `nisim <name> args...`: it parses the grid's own flags and
// the shared ones, sweeps the grid, prints its text to stdout, and writes
// the -json report. It returns the exit status: 2 for a usage error (an
// unknown grid or a bad flag value), 1 for a failed run.
func runGrid(name string, args []string, stdout, stderr io.Writer) int {
	var g *grid
	var names []string
	for i := range grids {
		names = append(names, grids[i].name)
		if grids[i].name == name {
			g = &grids[i]
		}
	}
	if g == nil {
		fmt.Fprintf(stderr, "nisim: unknown grid %q (grids: %s)\n", name, strings.Join(names, " "))
		return 2
	}
	fs := flag.NewFlagSet("nisim "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts sweep.Options
	opts.Register(fs)
	baseline := fs.Bool("baseline", false,
		"also run the grid serially (jobs=1, shards=1), require canonical-JSON identity, and record the speedup")
	var prof profiling.Flags
	prof.Register(fs)
	build := g.setup(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintf(stderr, "nisim %s: %v\n", name, err)
		return status
	}
	p, err := build()
	if err != nil {
		return fail(2, err)
	}
	stopProf, err := prof.Start()
	if err != nil {
		return fail(1, err)
	}
	results, rep := opts.Sweep(name, p.seed, p.jobs)
	if *baseline {
		err = serialBaseline(fs, build, opts, rep)
	}
	// Flush the profiles here so they cover the sweeps and are written even
	// when the run fails.
	stopProf()
	if err != nil {
		return fail(1, err)
	}
	if *baseline {
		fmt.Fprintf(stderr, "nisim %s: %.0f ms vs serial %.0f ms, %.2fx (jobs=%d, cpus=%d)\n",
			name, rep.Timing.WallMS, rep.Baseline.WallMS, rep.Timing.Speedup, rep.Timing.Jobs, rep.Timing.NumCPU)
	}
	if _, err := io.WriteString(stdout, p.render(results)); err != nil {
		return fail(1, err)
	}
	if err := opts.Emit(rep); err != nil {
		return fail(1, err)
	}
	if p.strict {
		failed := 0
		for _, r := range results {
			if r.Err != "" || r.TimedOut {
				failed++
				fmt.Fprintf(stderr, "nisim %s: %s: timed_out=%v err=%q\n", name, r.ID, r.TimedOut, r.Err)
			}
		}
		if failed > 0 {
			return fail(1, fmt.Errorf("%d of %d cells failed", failed, len(results)))
		}
	}
	return 0
}

// serialBaseline reruns the grid serially, one worker and one engine shard
// (for grids with -shards), requires its canonical report to match rep
// byte for byte, and records the serial timing and the speedup in rep's
// timing sidecar.
func serialBaseline(fs *flag.FlagSet, build func() (plan, error), opts sweep.Options, rep *sweep.Report) error {
	_ = fs.Set("shards", "1") // fails only for grids without -shards
	p, err := build()
	if err != nil {
		return err
	}
	opts.Jobs = 1
	_, serial := opts.Sweep(rep.Experiment, p.seed, p.jobs)
	got, err1 := rep.Canonical().MarshalIndentJSON()
	want, err2 := serial.Canonical().MarshalIndentJSON()
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("canonical report differs from the serial baseline's — determinism violation")
	}
	rep.Baseline = serial.Timing
	if rep.Timing.WallMS > 0 {
		rep.Timing.Speedup = serial.Timing.WallMS / rep.Timing.WallMS
	}
	return nil
}

// timed runs fn as a one-job sweep so the orchestrator's per-run timeout
// and panic containment apply to single runs too.
func timed(timeout time.Duration, id string, fn func()) {
	r := sweep.Run(sweep.Config{Jobs: 1, Timeout: timeout},
		[]sweep.Job{{ID: id, Run: func() sweep.Outcome { fn(); return sweep.Outcome{} }}})[0]
	if r.TimedOut {
		die(fmt.Errorf("%s: run exceeded -timeout %s", id, timeout))
	}
	if r.Err != "" {
		die(errors.New(r.Err))
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nisim:", err)
		os.Exit(1)
	}
}
