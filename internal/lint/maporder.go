package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags range statements over maps whose loop body lets Go's
// randomized iteration order escape into simulation results. Order leaks
// through four channels:
//
//   - scheduling events (directly or through any call chain that reaches
//     the engine's scheduling API) — event order becomes run-dependent;
//   - appending to a slice that outlives the loop — element order becomes
//     run-dependent, unless the slice is sorted before use (the sanctioned
//     collect-then-sort idiom, recognized when a sort call on the same
//     slice follows the loop in the enclosing block);
//   - accumulating floating-point values — float addition is not
//     associative, so the sum's low bits depend on visit order;
//   - writing output — line order becomes run-dependent.
//
// Order-independent bodies (integer accumulation, set membership updates,
// deletes) are fine and not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose order leaks into event scheduling, slice order, " +
		"float accumulation, or output; iterate over sorted keys instead",
	Run: runMapOrder,
}

// simSchedNames are the sim-package functions and methods that schedule
// events or transfer control between processes: reaching one of these from
// a map-ordered loop makes the event queue order run-dependent. Each names
// a definition in internal/sim; a name listed here without one would only
// hide a gap.
var simSchedNames = map[string]bool{
	"AtEvent": true, "AfterEvent": true, "AtEventPosted": true, "AtEventStamped": true,
	"AtEventFrom": true, "AtTimer": true, "AfterTimer": true, "Spawn": true,
	"Step": true, "Run": true, "RunUntil": true, "RunWhile": true, "RunWindow": true,
	"Sleep": true, "SleepAs": true, "Yield": true,
	"Park": true, "ParkUncharged": true, "Unpark": true, "Resume": true,
	"Wait": true, "Broadcast": true,
}

// outputFuncs are fmt's writing functions; Sprint* are pure and excluded.
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// writerMethods are method names that emit bytes to a stream or builder.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteTo": true,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if tv, ok := pass.Info.Types[rs.X]; !ok || !isMapType(tv.Type) {
				return true
			}
			checkMapRange(pass, rs, stack)
			return true
		})
	}
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, n); fn != nil {
				if pass.World.schedules(fn) {
					pass.Reportf(n.Pos(),
						"map iteration order reaches the event queue through %s; iterate over sorted keys instead", fn.FullName())
					return true
				}
				if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && outputFuncs[fn.Name()] {
					pass.Reportf(n.Pos(),
						"output written in map-iteration order; iterate over sorted keys instead")
					return true
				}
				if pkgFunc(fn, "io", "WriteString") ||
					(fn.Type().(*types.Signature).Recv() != nil && writerMethods[fn.Name()]) {
					pass.Reportf(n.Pos(),
						"output written in map-iteration order; iterate over sorted keys instead")
					return true
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					checkAppend(pass, rs, n, stack)
				}
			}
		case *ast.AssignStmt:
			checkFloatAccum(pass, rs, n)
		}
		return true
	})
}

// checkAppend flags append calls inside a map-range body whose destination
// outlives the loop, unless the collect-then-sort idiom follows.
func checkAppend(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr, stack []ast.Node) {
	if len(call.Args) == 0 {
		return
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		// Appending through a field or index expression: the destination
		// necessarily outlives the loop, and sorted-after detection does
		// not apply. Flag it.
		pass.Reportf(call.Pos(),
			"append in map-iteration order to a slice that outlives the loop; collect keys and sort first")
		return
	}
	obj := pass.Info.Uses[dst]
	if obj == nil || insideNode(obj.Pos(), rs) {
		return // loop-local slice: order cannot escape
	}
	if sortedAfter(pass, rs, obj, stack) {
		return // collect-then-sort idiom
	}
	pass.Reportf(call.Pos(),
		"append to %s in map-iteration order; sort %s before use or iterate over sorted keys", dst.Name, dst.Name)
}

// insideNode reports whether pos falls within n's source extent.
func insideNode(pos token.Pos, n ast.Node) bool {
	return pos >= n.Pos() && pos < n.End()
}

// sortedAfter reports whether a statement after the map-range loop, in the
// nearest enclosing statement list, passes obj to a sort or slices call —
// the sanctioned collect-then-sort idiom.
func sortedAfter(pass *Pass, rs *ast.RangeStmt, obj types.Object, stack []ast.Node) bool {
	following := stmtsAfter(rs, stack)
	for _, s := range following {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if usesObject(pass, arg, obj) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// stmtsAfter returns the statements that follow the one containing rs in
// the nearest enclosing statement list.
func stmtsAfter(rs *ast.RangeStmt, stack []ast.Node) []ast.Stmt {
	// Find the statement list (block or case body) closest to rs, and the
	// direct child on the path to rs.
	for i := len(stack) - 1; i > 0; i-- {
		var list []ast.Stmt
		switch n := stack[i-1].(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			continue
		}
		child, ok := stack[i].(ast.Stmt)
		if !ok {
			continue
		}
		for j, s := range list {
			if s == child {
				return list[j+1:]
			}
		}
	}
	return nil
}

// usesObject reports whether expr mentions obj.
func usesObject(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// checkFloatAccum flags floating-point accumulation into a variable that
// outlives the loop: s += v, s = s + v, and friends.
func checkFloatAccum(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt) {
	if len(as.Lhs) != 1 {
		return
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.Info.Uses[lhs]
	if obj == nil || insideNode(obj.Pos(), rs) || !isFloat(obj.Type()) {
		return
	}
	accum := false
	switch as.Tok.String() {
	case "+=", "-=", "*=", "/=":
		accum = true
	case "=":
		accum = usesObject(pass, as.Rhs[0], obj)
	}
	if accum {
		pass.Reportf(as.Pos(),
			"floating-point accumulation into %s in map-iteration order is not associative; iterate over sorted keys", lhs.Name)
	}
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// schedules reports whether calling fn can reach the sim engine's
// scheduling API. The walk follows statically resolved calls through every
// package loaded in the world; dynamic calls (interface methods, function
// values) end the chain, a documented under-approximation.
func (w *World) schedules(fn *types.Func) bool {
	switch w.schedMemo[fn] {
	case schedYes:
		return true
	case schedNo, schedVisiting:
		return false
	}
	if isSimPkg(fn.Pkg()) && simSchedNames[fn.Name()] {
		w.schedMemo[fn] = schedYes
		return true
	}
	decl, pkg := w.FuncSource(fn)
	if decl == nil {
		w.schedMemo[fn] = schedNo
		return false
	}
	w.schedMemo[fn] = schedVisiting
	result := schedNo
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if result == schedYes {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeFunc(pkg.Info, call); callee != nil && callee != fn && w.schedules(callee) {
			result = schedYes
		}
		return result != schedYes
	})
	w.schedMemo[fn] = result
	return result == schedYes
}
