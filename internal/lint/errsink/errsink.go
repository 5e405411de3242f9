// Package errsink reports discarded error returns from
// durability-critical callees. The crash-safety contract (DESIGN.md
// §11) is only as strong as its weakest error path: a swallowed fsync,
// rename, journal append or checkpoint save means the service
// acknowledges state it may not hold after a crash. The analyzer flags
// bare-statement calls, `_ =` assignments and deferred calls whose
// static callee is one of
//
//   - the fsio seam (File.Write/Sync/Close, FS.Rename/Remove/MkdirAll/
//     SyncDir, WriteFileAtomic) — every byte of spool, journal and
//     checkpoint I/O flows through it,
//   - journal.Journal Append/Close,
//   - Save-shaped checkpoint function fields,
//   - os.Rename and os.File.Sync, the raw forms of the same operations.
//
// Best-effort discards (quarantine renames on already-failing paths,
// cleanup removes after an error) are annotated with
// `//lint:allow errsink -- <reason>` so every swallowed durability
// error in the tree is a reviewed decision, not an accident.
package errsink

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// Analyzer is the discarded-durability-error check.
var Analyzer = &lint.Analyzer{
	Name: "errsink",
	Doc:  "report discarded error returns from durability-critical callees (fsio, journal, checkpoints, fsync, rename)",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if !lint.InConcurrencyScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscard(pass, call, nil)
				}
				return false // the call's arguments cannot discard results
			case *ast.DeferStmt:
				checkDiscard(pass, n.Call, nil)
				return true // closures in args still need walking
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 {
					if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
						checkDiscard(pass, call, n.Lhs)
					}
				}
				return true
			}
			return true
		})
	}
	return nil
}

// checkDiscard reports the call if it returns an error that the
// statement throws away and the callee is durability-critical. lhs is
// nil for bare/deferred calls and the assignment targets otherwise.
func checkDiscard(pass *lint.Pass, call *ast.CallExpr, lhs []ast.Expr) {
	name, ok := durabilityCallee(pass, call)
	if !ok {
		return
	}
	tv, ok := pass.Info.Types[call]
	if !ok {
		return
	}
	errIdxs := errorResults(tv.Type)
	if len(errIdxs) == 0 {
		return
	}
	if lhs != nil {
		// Discarded only when every error-typed result lands in a blank.
		for _, i := range errIdxs {
			if i >= len(lhs) || !isBlank(lhs[i]) {
				return
			}
		}
	}
	pass.Reportf(call.Pos(),
		"error from %s is discarded; a swallowed durability error breaks the crash-safety contract — handle it, or annotate a best-effort call with //lint:allow errsink -- <reason>",
		name)
}

// errorResults returns the result indices of type error. A bare error
// return is index 0 of a 1-tuple.
func errorResults(t types.Type) []int {
	var idxs []int
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				idxs = append(idxs, i)
			}
		}
		return idxs
	}
	if isErrorType(t) {
		return []int{0}
	}
	return nil
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// durabilityCallee classifies the call's static callee, returning a
// printable name for diagnostics.
func durabilityCallee(pass *lint.Pass, call *ast.CallExpr) (string, bool) {
	if f := lint.CalleeFunc(pass.Info, call); f != nil && f.Pkg() != nil {
		switch f.Pkg().Path() {
		case "repro/internal/serve/fsio":
			switch f.Name() {
			case "Write", "Sync", "Close", "Rename", "Remove", "MkdirAll", "SyncDir", "WriteFileAtomic", "OpenFile", "CreateTemp":
				return "fsio." + qualify(f), true
			}
		case "repro/internal/serve/journal":
			switch f.Name() {
			case "Append", "Close":
				return "journal." + qualify(f), true
			}
		case "os":
			if f.Name() == "Rename" {
				return "os.Rename", true
			}
			if f.Name() == "Sync" && recvIs(f, "File") {
				return "os.File.Sync", true
			}
		}
		return "", false
	}
	// Calls through Save/Load-shaped checkpoint function fields
	// (serve.CheckpointIO and friends): the callee is a func-typed
	// struct field, invisible to CalleeFunc.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || field.Pkg() == nil || !lint.InConcurrencyScope(field.Pkg().Path()) {
		return "", false
	}
	switch field.Name() {
	case "Save", "Append", "Sync":
	default:
		return "", false
	}
	if _, isFunc := field.Type().Underlying().(*types.Signature); !isFunc {
		return "", false
	}
	owner := ""
	if n, ok := derefNamed(s.Recv()); ok {
		owner = n.Obj().Name() + "."
	}
	return owner + field.Name(), true
}

func qualify(f *types.Func) string {
	if r := recvTypeName(f); r != "" {
		return r + "." + f.Name()
	}
	return f.Name()
}

func recvIs(f *types.Func, typeName string) bool {
	return recvTypeName(f) == typeName
}

func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	}
	return ""
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}
