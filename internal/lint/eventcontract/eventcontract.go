// Package eventcontract checks the telemetry emission contract between
// event producers (bus, node, the harnesses) and the obs sinks:
//
//   - every obs.Event composite literal names its fields and sets Kind,
//     Slot and Station — the triple every sink (JSONL lines, metrics
//     counters, the trace correlator) keys on;
//   - a constant Cause code must have an entry in the obs cause-name
//     table, so JSONL lines never carry an unnamed cause;
//   - every Emit call on an obs.Sink-typed value is guarded by a nil
//     check of that value, preserving the "uninstrumented runs pay one
//     nil check" claim and keeping optional telemetry crash-free.
//
// The obs package itself (the sink plumbing: Multi, Ring.Drain, the
// JSONL writer) is exempt from the nil-guard rule; its combinators
// filter nils structurally.
package eventcontract

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the telemetry emission contract check.
var Analyzer = &lint.Analyzer{
	Name: "eventcontract",
	Doc:  "require complete obs.Event literals, valid cause codes and nil-guarded Emit calls",
	Run:  run,
}

const obsPathSuffix = "internal/obs"

// maxCauseCode is the largest code in the obs cause-name table
// (bit=1 … overload=6; 0 means "no cause"). Pinned against the table by
// the analyzer's tests.
const maxCauseCode = 6

// knownKinds pins the full set of obs.Kind constants event producers may
// emit. Adding a kind to obs without listing it here fails the lint —
// the forcing function that keeps the trace synthesiser, the JSONL name
// table and the docs in step with new event kinds. The analyzer's tests
// pin this table against the constants the obs package actually
// declares, so the two cannot drift apart silently.
var knownKinds = map[string]bool{
	"KindFrameStart":         true,
	"KindArbitrationLoss":    true,
	"KindStuffError":         true,
	"KindErrorFlagPrimary":   true,
	"KindErrorFlagSecondary": true,
	"KindEOFVoteCorrected":   true,
	"KindRetransmit":         true,
	"KindFrameAccepted":      true,
	"KindIMO":                true,
	"KindBusOff":             true,
	"KindRecover":            true,
	"KindStorageDegraded":    true,
	"KindJournalRecovered":   true,
	"KindCheckpointSaved":    true,
	"KindCheckpointResumed":  true,
	"KindEOFVote":            true,
	"KindRingOverflow":       true,
}

func run(pass *lint.Pass) error {
	isObsItself := strings.HasSuffix(pass.Pkg.Path(), obsPathSuffix)
	for _, f := range pass.Files {
		var enclosing []*ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				enclosing = append(enclosing, n)
			case *ast.CompositeLit:
				checkEventLit(pass, n)
			case *ast.CallExpr:
				if !isObsItself {
					checkEmitGuard(pass, currentFunc(enclosing, n), n)
				}
			}
			return true
		})
	}
	return nil
}

// currentFunc returns the innermost function declaration containing n.
func currentFunc(stack []*ast.FuncDecl, n ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].Pos() <= n.Pos() && n.End() <= stack[i].End() {
			return stack[i]
		}
	}
	return nil
}

// isObsType reports whether t (after pointer deref) is the named type
// obs.<name>.
func isObsType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && strings.HasSuffix(n.Obj().Pkg().Path(), obsPathSuffix)
}

func checkEventLit(pass *lint.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok || !isObsType(tv.Type, "Event") {
		return
	}
	if len(lit.Elts) == 0 {
		// The zero Event is a legitimate buffer/placeholder value
		// (ring slots, var declarations), not an emission.
		return
	}
	set := make(map[string]ast.Expr, len(lit.Elts))
	for _, e := range lit.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			pass.Reportf(e.Pos(), "obs.Event literal must use keyed fields so sink-required fields are auditable")
			return
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			set[id.Name] = kv.Value
		}
	}
	var missing []string
	for _, req := range [...]string{"Kind", "Slot", "Station"} {
		if _, ok := set[req]; !ok {
			missing = append(missing, req)
		}
	}
	if len(missing) > 0 {
		pass.Reportf(lit.Pos(),
			"obs.Event literal missing required field(s) %s; every sink keys on (Kind, Slot, Station)",
			strings.Join(missing, ", "))
	}
	if cause, ok := set["Cause"]; ok {
		checkCauseCode(pass, cause)
	}
	if kind, ok := set["Kind"]; ok {
		checkKindKnown(pass, kind)
	}
}

// checkKindKnown verifies that a Kind field referencing an obs.Kind
// constant names one in the pinned knownKinds table. Kinds passed
// through variables or parameters are the producer's runtime data and
// are not checked.
func checkKindKnown(pass *lint.Pass, expr ast.Expr) {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return
	}
	obj := pass.Info.Uses[id]
	c, ok := obj.(*types.Const)
	if !ok || !isObsType(c.Type(), "Kind") {
		return
	}
	if !knownKinds[c.Name()] {
		pass.Reportf(expr.Pos(),
			"obs.Kind constant %s is not in the eventcontract knownKinds table; new event kinds must be registered there (and handled by the trace/export layers) before use",
			c.Name())
	}
}

func checkCauseCode(pass *lint.Pass, expr ast.Expr) {
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return // non-constant causes are the producer's runtime data
	}
	if v, ok := constant.Uint64Val(tv.Value); ok && v > maxCauseCode {
		pass.Reportf(expr.Pos(),
			"Cause code %d has no entry in the obs cause-name table (codes 1..%d; 0 = none); JSONL lines would carry an unnamed cause",
			v, maxCauseCode)
	}
}

// checkEmitGuard verifies that a call X.Emit(...) on an obs.Sink-typed X
// happens under a nil check of X: either inside an `if X != nil` branch
// or after an `if X == nil { return }` early exit in the same function.
func checkEmitGuard(pass *lint.Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Emit" {
		return
	}
	recvTV, ok := pass.Info.Types[sel.X]
	if !ok || !isObsType(recvTV.Type, "Sink") {
		return // concrete sink types (Memory, JSONLWriter, ...) are non-nil by construction
	}
	if fn == nil || fn.Body == nil {
		return
	}
	recv := types.ExprString(sel.X)
	if guardedByIf(fn.Body, recv, call) || guardedByEarlyReturn(fn.Body, recv, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"Emit on obs.Sink %q is not guarded by a nil check; uninstrumented runs would panic (guard with `if %s != nil` or an early return)",
		recv, recv)
}

// guardedByIf reports whether the call sits in the body of an if whose
// condition contains `recv != nil`.
func guardedByIf(body *ast.BlockStmt, recv string, call *ast.CallExpr) bool {
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if condChecksNotNil(ifStmt.Cond, recv) &&
			ifStmt.Body.Pos() <= call.Pos() && call.End() <= ifStmt.Body.End() {
			guarded = true
			return false
		}
		return true
	})
	return guarded
}

// guardedByEarlyReturn reports whether a statement `if recv == nil {
// ... return }` precedes the call in the function body.
func guardedByEarlyReturn(body *ast.BlockStmt, recv string, call *ast.CallExpr) bool {
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if ifStmt.End() <= call.Pos() && condChecksIsNil(ifStmt.Cond, recv) && endsInReturn(ifStmt.Body) {
			guarded = true
			return false
		}
		return true
	})
	return guarded
}

func endsInReturn(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	_, ok := body.List[len(body.List)-1].(*ast.ReturnStmt)
	return ok
}

// condChecksNotNil reports whether the condition contains `recv != nil`
// as a conjunct (anywhere in the expression tree).
func condChecksNotNil(cond ast.Expr, recv string) bool {
	return condChecksNil(cond, recv, token.NEQ)
}

func condChecksIsNil(cond ast.Expr, recv string) bool {
	return condChecksNil(cond, recv, token.EQL)
}

func condChecksNil(cond ast.Expr, recv string, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || bin.Op != op {
			return true
		}
		if (exprIs(bin.X, recv) && exprIsNil(bin.Y)) || (exprIs(bin.Y, recv) && exprIsNil(bin.X)) {
			found = true
			return false
		}
		return true
	})
	return found
}

func exprIs(e ast.Expr, printed string) bool {
	return types.ExprString(ast.Unparen(e)) == printed
}

func exprIsNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
