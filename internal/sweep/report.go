package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Schema names the machine-readable result format. Bump the version when a
// field changes meaning or disappears; adding optional fields is
// backward-compatible and does not require a bump.
const Schema = "nisim-sweep/v1"

// JobTiming is one job's host wall-clock cost.
type JobTiming struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
}

// Timing is the report's host-side sidecar: everything that legitimately
// varies from run to run (worker count, wall-clock times, host shape)
// lives here and nowhere else, so stripping it (see Canonical) yields a
// byte-identical report for any worker count.
type Timing struct {
	Jobs      int     `json:"jobs"`
	NumCPU    int     `json:"num_cpu"`
	GoVersion string  `json:"go_version"`
	WallMS    float64 `json:"wall_ms"`
	// Speedup is this sweep's wall time relative to a serial (jobs=1) run
	// of the same grid, when the driver measured one (nisim <grid>
	// -baseline).
	Speedup float64     `json:"speedup_vs_serial,omitempty"`
	PerJob  []JobTiming `json:"per_job,omitempty"`
}

// A Report is the versioned machine-readable record of one experiment
// sweep: the configuration grid and its metrics (deterministic for a given
// seed), plus the timing sidecar (host-dependent).
type Report struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	// GitRev is the source revision the binary was run from, best-effort
	// (empty outside a git checkout).
	GitRev string `json:"git_rev,omitempty"`
	// Seed is the experiment's random seed, for experiments that take one
	// (the fault sweep); 0 means the workloads' built-in fixed seeds.
	Seed    uint64   `json:"seed"`
	Results []Result `json:"results"`
	Timing  *Timing  `json:"timing,omitempty"`
	// Baseline is the timing of a serial (jobs=1) run of the same grid,
	// present only when the driver measured one for a speedup comparison.
	Baseline *Timing `json:"baseline,omitempty"`
}

// NewReport wraps sweep results in a Report, hoisting per-job wall times
// into the timing sidecar. totalWallMS is the whole sweep's wall time
// (which is less than the per-job sum when workers ran in parallel).
func NewReport(experiment string, seed uint64, cfg Config, results []Result, totalWallMS float64) *Report {
	timing := &Timing{
		Jobs:      cfg.Workers(len(results)),
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		WallMS:    totalWallMS,
	}
	for _, r := range results {
		timing.PerJob = append(timing.PerJob, JobTiming{ID: r.ID, WallMS: r.WallMS})
	}
	return &Report{
		Schema:     Schema,
		Experiment: experiment,
		GitRev:     GitRev(),
		Seed:       seed,
		Results:    results,
		Timing:     timing,
	}
}

// Canonical returns a copy of the report with the timing sidecar removed —
// the deterministic core that must be byte-identical between a serial and
// a parallel sweep of the same grid and seed. (Timed-out results are the
// one exception: a timeout depends on host speed by definition.)
func (r *Report) Canonical() *Report {
	c := *r
	c.Timing = nil
	c.Baseline = nil
	return &c
}

// MarshalIndentJSON renders the report as indented JSON with a trailing
// newline. Map-valued fields serialize with sorted keys (encoding/json's
// guarantee), so the bytes are a pure function of the report's content.
func (r *Report) MarshalIndentJSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON writes the report to w as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := r.MarshalIndentJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteFile writes the report to path; "-" means standard output.
func (r *Report) WriteFile(path string) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	b, err := r.MarshalIndentJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// GitRev returns the short hash of the checked-out revision (with a
// "+dirty" suffix when the worktree has local changes), or "" when the
// working directory is not a git checkout or git is unavailable.
func GitRev() string {
	rev, err := gitOutput("rev-parse", "--short", "HEAD")
	if err != nil || rev == "" {
		return ""
	}
	if status, err := gitOutput("status", "--porcelain"); err == nil && status != "" {
		rev += "+dirty"
	}
	return rev
}

func gitOutput(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
