package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ChanConfine confines channel operations — creation, send, receive,
// select, close, range — to the two sanctioned concurrency layers: the
// experiment orchestrator (internal/sweep) and the conservative-parallel
// partition layer (internal/sim/partition). Everywhere else, including the
// sim kernel itself, a channel operation is a finding, so any new channel
// topology must either live in a sanctioned layer or argue its case in a
// //lint:allow directive reason. Channel *type* declarations (struct
// fields, signatures) are not flagged — only operations move data between
// goroutines.
var ChanConfine = &Analyzer{
	Name: "chanconfine",
	Doc: "channel creation/send/recv/select is confined to internal/sweep " +
		"and the internal/sim partition layer; model and kernel code must use " +
		"the engine's process API",
	Skip: isChanSanctionedPath,
	Run:  runChanConfine,
}

// isChanSanctionedPath reports the packages whose business is channels:
// the sweep orchestrator and the sim partition layer.
func isChanSanctionedPath(path string) bool {
	return isOrchPkgPath(path) || isPartitionPkgPath(path)
}

func isPartitionPkgPath(path string) bool {
	return path == "sim/partition" || path == "internal/sim/partition" ||
		strings.HasSuffix(path, "/internal/sim/partition")
}

func runChanConfine(pass *Pass) {
	const confined = "is confined to internal/sweep and internal/sim/partition"
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send %s", confined)
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Reportf(n.Pos(), "channel receive %s", confined)
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select %s", confined)
			case *ast.RangeStmt:
				if isChanExpr(pass.Info, n.X) {
					pass.Reportf(n.Pos(), "range over channel %s", confined)
				}
			case *ast.CallExpr:
				id, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				if b, isB := pass.Info.Uses[id].(*types.Builtin); isB {
					switch {
					case b.Name() == "make" && isChanExpr(pass.Info, n):
						pass.Reportf(n.Pos(), "channel creation %s", confined)
					case b.Name() == "close" && len(n.Args) == 1 && isChanExpr(pass.Info, n.Args[0]):
						pass.Reportf(n.Pos(), "channel close %s", confined)
					}
				}
			}
			return true
		})
	}
}

// isChanExpr reports whether e's type is a channel.
func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
