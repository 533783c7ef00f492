package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// NoGoroutine keeps model and kernel code single-threaded. The event loop
// owns all concurrency: simulated software runs as cooperative processes
// (sim.Engine.Spawn) that the engine switches to and from directly, which
// is what makes runs deterministic. A stray goroutine, channel, or sync
// primitive reintroduces scheduler nondeterminism — and data races — that
// the engine was built to exclude. The sim kernel itself is checked like
// model code; only internal/sim/partition (the conservative-parallel shard
// runtime, whose barrier protocol is the one sanctioned cross-shard
// handoff) may use go statements, channels, select, and the sync packages.
//
// The experiment orchestrator (internal/sweep) is the one other sanctioned
// concurrency point, under a weaker contract checked by runOrchestration:
// goroutines, channels, and sync are its business (fanning whole
// simulations out across workers), but no goroutine there may statically
// reach the simulator — each simulation must arrive as an opaque closure
// and stay single-threaded inside its worker. See DESIGN.md "Experiment
// orchestration".
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc: "model and kernel code must not spawn goroutines or use channels/select/sync; " +
		"concurrency belongs to the sim kernel's process API, the partition layer and, " +
		"for fanning out whole simulations, the sweep orchestrator",
	Skip: isPartitionPkgPath,
	Run:  runNoGoroutine,
}

// isPartitionPkgPath reports the partition layer, the one package whose
// business is shard worker goroutines, channels and sync.
func isPartitionPkgPath(path string) bool {
	return path == "sim/partition" || path == "internal/sim/partition" ||
		strings.HasSuffix(path, "/internal/sim/partition")
}

func runNoGoroutine(pass *Pass) {
	if isOrchPkgPath(pass.Pkg.Path()) {
		runOrchestration(pass)
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				if path == "sync" || path == "sync/atomic" {
					pass.Reportf(imp.Pos(),
						"import of %s outside the partition layer; the event loop is single-threaded by design", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine outside the partition layer; spawn simulated software with sim.Engine.Spawn")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send outside the partition layer")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select outside the partition layer")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Reportf(n.Pos(), "channel receive outside the partition layer")
				}
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type outside the partition layer")
				return false
			case *ast.RangeStmt:
				if tv, ok := pass.Info.Types[n.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(), "range over channel outside the partition layer")
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
						pass.Reportf(n.Pos(), "channel close outside the partition layer")
					}
				}
			}
			return true
		})
	}
}

// runOrchestration enforces the orchestrator's restricted contract:
// concurrency primitives are allowed, but a goroutine spawned here must
// not reach the simulation. Each go statement's statically resolvable
// calls — the spawned call itself, or every call inside a spawned function
// literal — are checked against the sim package and the transitive
// schedules() call graph; dynamic calls (the opaque job closures the
// orchestrator exists to run) end the chain, which is exactly the
// share-nothing shape the contract demands.
func runOrchestration(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						checkOrchCall(pass, call)
					}
					return true
				})
				return true
			}
			checkOrchCall(pass, g.Call)
			return true
		})
	}
}

// checkOrchCall reports a call (made from an orchestrator goroutine) that
// resolves to the sim kernel or transitively reaches its scheduling API.
func checkOrchCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return
	}
	if isSimPkg(fn.Pkg()) || pass.World.schedules(fn) {
		pass.Reportf(call.Pos(),
			"orchestrator goroutine reaches the simulation through %s; simulations must enter the sweep only as opaque job closures", fn.Name())
	}
}
