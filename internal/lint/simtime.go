package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// SimTime enforces unit discipline on sim.Time. Simulated time is integer
// picoseconds; a bare numeric literal where sim.Time is expected
// ("AfterEvent(100, ...)" — 100 what?) compiles silently but carries no
// unit, and a raw integer→sim.Time conversion at a call boundary launders
// an unitless count into a duration. Durations must be composed from the kernel's unit
// constants (2*sim.Nanosecond, clock.Cycles(3), cfg.Latency).
//
// Accepted forms:
//
//   - 0 (the zero duration needs no unit);
//   - any constant expression referencing a named constant or variable
//     (2*sim.Nanosecond, 3*tickPeriod) — the name carries the unit;
//   - integer→sim.Time conversions inside arithmetic that scales a
//     unit-carrying operand (sim.Time(n)*sim.Nanosecond, total/sim.Time(rounds)),
//     where the conversion expresses a dimensionless scalar.
//
// internal/sim itself is exempt: it defines the units.
var SimTime = &Analyzer{
	Name: "simtime",
	Doc: "flag non-zero bare integer literals and raw integer conversions used as sim.Time; " +
		"compose durations from sim unit constants",
	Skip: isSimPkgPath,
	Run:  runSimTime,
}

func runSimTime(pass *Pass) {
	for _, f := range pass.Files {
		checkBareLiterals(pass, f)
		checkRawConversions(pass, f)
	}
}

// checkBareLiterals reports maximal constant expressions of type sim.Time
// built from literals alone. The walk prunes at the first constant sim.Time
// expression on each path: if it mentions any identifier (a unit constant,
// a named parameter) the whole expression is accepted; otherwise it is a
// unitless number being silently promoted to a duration.
func checkBareLiterals(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[expr]
		if !ok || tv.Value == nil || !isSimTime(tv.Type) {
			return true
		}
		if mentionsIdent(expr) {
			return false // unit carried by a name; accept wholesale
		}
		if constant.Sign(tv.Value) != 0 {
			pass.Reportf(expr.Pos(),
				"bare constant %s used as sim.Time; compose the duration from sim unit constants (e.g. %s*sim.Nanosecond)",
				tv.Value, tv.Value)
		}
		return false
	})
}

// mentionsIdent reports whether expr contains any identifier (so its value
// is named somewhere, which is what carries the unit).
func mentionsIdent(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.Ident); ok {
			found = true
		}
		return !found
	})
	return found
}

// checkRawConversions reports sim.Time(x) conversions of integer operands
// that are used directly as a duration — as a call argument, struct field,
// assignment, or return value — rather than as a dimensionless scale factor
// inside arithmetic.
func checkRawConversions(pass *Pass, f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		funTV, ok := pass.Info.Types[call.Fun]
		if !ok || !funTV.IsType() || !isSimTime(funTV.Type) {
			return true
		}
		argTV, ok := pass.Info.Types[call.Args[0]]
		if !ok || !isIntegerNonTime(argTV.Type) {
			return true
		}
		if argTV.Value != nil && constant.Sign(argTV.Value) == 0 {
			return true // sim.Time(0) carries no unit by definition
		}
		if inScalingContext(stack) {
			return true
		}
		pass.Reportf(call.Pos(),
			"raw integer→sim.Time conversion used as a duration; multiply by a sim unit constant instead")
		return true
	})
}

func isIntegerNonTime(t types.Type) bool {
	if t == nil || isSimTime(t) {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// inScalingContext reports whether the node on top of stack sits directly
// inside binary arithmetic (ignoring parentheses) — the scalar-scaling
// position where a unitless conversion is legitimate.
func inScalingContext(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.BinaryExpr:
			return true
		default:
			return false
		}
	}
	return false
}
