// Package lint implements simlint: a suite of static-analysis passes that
// mechanically enforce the simulator's determinism and unit-safety
// invariants. The paper's evaluation rests on cycle-exact, reproducible
// runs; these passes turn the invariants that guarantee reproducibility —
// no wall-clock or global math/rand in model code, no map-iteration order
// leaking into event scheduling or output, sim.Time always composed from
// unit constants, goroutines only via the engine's process API, hot paths
// statically allocation-free from their //lint:hotpath roots, switches on
// //lint:enum design-space types exhaustive, channels confined to the
// sanctioned concurrency layers — into a CI gate instead of reviewer
// vigilance.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic, analysistest-style fixtures) but is self-contained on the
// standard library: packages are loaded and typechecked from source, so the
// linter needs no module downloads to run.
//
// Findings can be suppressed with an annotation on the offending line or
// the line directly above it:
//
//	//lint:allow <pass> <reason>
//
// The reason is mandatory; an allow directive without one is itself a
// finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the pass in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Skip, if non-nil, reports packages the pass does not apply to
	// (e.g. internal/sim itself is exempt from simtime and nogoroutine).
	Skip func(pkgPath string) bool
	// Run reports findings for one package.
	Run func(*Pass)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// World gives access to every module package loaded alongside this
	// one, for cross-package call-graph queries.
	World *World

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     pos,
		Pass:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Pass    string
	Message string
}

// All returns the full simlint suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{DetRand, MapOrder, SimTime, NoGoroutine, NoAlloc, Exhaustive, ExportDoc}
}

// Run executes one analyzer over a loaded package and returns its findings
// with allow directives already applied, sorted by position. It returns nil
// (no findings) for packages the analyzer skips.
func Run(a *Analyzer, pkg *Package) []Diagnostic {
	if a.Skip != nil && a.Skip(pkg.Path) {
		return nil
	}
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.World.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		World:    pkg.World,
	}
	a.Run(pass)
	diags := filterAllowed(a.Name, pass.diags, pkg)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}

// isSimPkg reports whether p is the simulation-kernel package that owns the
// event loop and the Time unit constants. The bare path "sim" is accepted so
// analysistest fixtures can stand in a fake kernel.
func isSimPkg(p *types.Package) bool {
	if p == nil {
		return false
	}
	return isSimPkgPath(p.Path())
}

func isSimPkgPath(path string) bool {
	return path == "sim" || path == "internal/sim" || strings.HasSuffix(path, "/internal/sim")
}

// isOrchPkgPath reports whether path is the experiment-orchestration
// package (internal/sweep), the one sanctioned concurrency point besides
// the partition layer. Unlike that layer it is not blanket-exempt: nogoroutine
// runs a restricted variant there (goroutines may not reach the
// simulator), and detrand keeps its randomness bans while waiving the
// wall-clock ban (host wall time is the orchestrator's subject matter).
// The bare paths "sweep" and "internal/sweep" are accepted so analysistest
// fixtures can stand in for the orchestrator.
func isOrchPkgPath(path string) bool {
	return path == "sweep" || path == "internal/sweep" || strings.HasSuffix(path, "/internal/sweep")
}

// simTimeType reports whether t is the simulation kernel's Time type.
func isSimTime(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && isSimPkg(obj.Pkg())
}

// calleeFunc resolves the called function or method of a call expression to
// its types object, or nil for builtins, conversions, and dynamic calls.
// Explicitly instantiated generic calls (f[T](x)) resolve through their
// index expression to the generic function.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(e.X)
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgFunc reports whether fn is the package-level function path.name
// (methods, which have receivers, never match).
func pkgFunc(fn *types.Func, path, name string) bool {
	return fn != nil && fn.Name() == name && fn.Pkg() != nil &&
		fn.Pkg().Path() == path && fn.Type().(*types.Signature).Recv() == nil
}
