package lint

import (
	"go/ast"
	"go/types"
)

// DetRand forbids nondeterministic time and randomness sources in
// simulation code. A simulated run must depend only on its configuration
// and seed, so:
//
//   - wall-clock reads (time.Now, time.Since, ...) are banned;
//   - the global math/rand source (rand.Intn, rand.Float64, rand.Seed, ...)
//     is banned — it is shared, racy, and unseeded by default;
//   - rand.New is allowed only in the seeded per-node/per-endpoint pattern
//     used by internal/workload: rand.New(rand.NewSource(<derived seed>)).
//     Anything else (a source smuggled in through a variable, a v2
//     generator without an explicit seed) is flagged as unseeded.
//
// The sweep orchestrator (internal/sweep) is exempt from the wall-clock
// ban only: it measures host wall time and enforces per-run timeouts by
// design, and simulated time never flows through it. Its randomness bans
// still apply.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock time and global/unseeded math/rand in simulation code; " +
		"randomness must come from a seeded per-node source or internal/faults' splitmix64 streams",
	Run: runDetRand,
}

// wallClockFuncs are the time-package functions that observe or depend on
// the host's clock. Pure constructors and formatters (time.Date, d.String)
// are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the math/rand (and v2) package-level functions backed
// by the shared global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// seededSourceCtors construct explicitly seeded sources; a rand.New whose
// argument is a direct call to one of these is the sanctioned pattern.
var seededSourceCtors = map[string]bool{
	"NewSource":  true, // math/rand
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func isRandPkg(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

func runDetRand(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch path := fn.Pkg().Path(); {
			case path == "time" && wallClockFuncs[fn.Name()]:
				// The sweep orchestrator is host-side tooling: measuring
				// wall-clock time (job timings, per-run timeouts) is its
				// subject matter, not a determinism leak — simulated time
				// never flows through it. Its randomness bans still apply.
				if isOrchPkgPath(pass.Pkg.Path()) {
					return true
				}
				pass.Reportf(call.Pos(),
					"time.%s reads the wall clock; simulated time must come from the engine (sim.Engine.Now)", fn.Name())
			case isRandPkg(path) && globalRandFuncs[fn.Name()]:
				pass.Reportf(call.Pos(),
					"rand.%s uses the global math/rand source; use a seeded per-node rand.New(rand.NewSource(seed))", fn.Name())
			case isRandPkg(path) && fn.Name() == "New" && !seededNewCall(pass, call):
				pass.Reportf(call.Pos(),
					"rand.New with a source that is not a direct rand.NewSource(seed) call; seed it per node/endpoint so runs reproduce")
			}
			return true
		})
	}
}

// seededNewCall reports whether call is rand.New(rand.NewSource(...)) (or a
// v2 equivalent) — the explicitly seeded construction.
func seededNewCall(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass.Info, inner)
	return fn != nil && fn.Pkg() != nil && isRandPkg(fn.Pkg().Path()) && seededSourceCtors[fn.Name()]
}
