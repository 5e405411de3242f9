// Package lint is a self-contained static-analysis framework modelled on
// golang.org/x/tools/go/analysis, built only on the standard library so
// the repository carries no external dependency. It machine-checks the
// conventions the simulator's reproducibility guarantees rest on: the
// chaos engine's digest-verified replays and the byte-identical JSONL
// event streams only hold if simulator code never reads the wall clock,
// never draws from the global math/rand stream, never iterates maps in
// an order-sensitive way, and never allocates on the per-bit hot path.
//
// Four analyzers enforce those contracts (see the determinism, hotpath,
// eventcontract and atomicmix subpackages); cmd/majorcanlint is the
// multichecker driver wired into `make lint` and CI.
//
// Intentional exceptions are annotated in the source:
//
//	//lint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory: an allow directive without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-line description shown by the driver.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at the given position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// ScopePaths lists the import-path prefixes the determinism contract
// covers: every package whose path equals an entry or sits below it.
// The simulator core must be bit-reproducible; the CLIs and the public
// API are included so stray wall-clock or global-RNG calls there are
// annotated rather than silent.
var ScopePaths = []string{
	"repro/internal/bus",
	"repro/internal/node",
	"repro/internal/core",
	"repro/internal/sim",
	"repro/internal/chaos",
	"repro/internal/frame",
	"repro/internal/bitstream",
	"repro/internal/errmodel",
	"repro/internal/trace",
	"repro/internal/obs",
	"repro/internal/serve",
	// The durability layer is listed explicitly even though the serve
	// prefix already covers it: journal replay and fault-injected I/O
	// must stay deterministic for crash recovery to reproduce results
	// bit-for-bit, so these packages must never fall out of scope if the
	// serve entry is ever narrowed.
	"repro/internal/serve/fsio",
	"repro/internal/serve/journal",
	// Span synthesis replays recorded event streams; like the durability
	// packages it is pinned explicitly (the obs prefix covers it today) so
	// trace reconstruction can never silently fall out of scope.
	"repro/internal/obs/span",
	// The fleet coordinator replans jobs deterministically on recovery
	// and merges shard results byte-identically; stray wall-clock or RNG
	// use there would silently break the single-node equivalence.
	"repro/internal/fleet",
	// The fast bit-slot engine must produce traces bit-identical to the
	// reference loop (DESIGN.md §15); it is pinned explicitly even though
	// the bus prefix covers it today, so the differential oracle's
	// preconditions cannot silently fall out of scope if the bus entry is
	// ever narrowed.
	"repro/internal/bus/fastpath",
	"repro/cmd",
	"repro/majorcan",
}

// InScope reports whether the import path falls under ScopePaths.
func InScope(path string) bool {
	for _, p := range ScopePaths {
		if path == p || (len(path) > len(p) && path[:len(p)] == p && path[len(p)] == '/') {
			return true
		}
	}
	return false
}

// HotPathRoots names the per-bit-slot entry points, as
// "pkgpath.Func" or "pkgpath.Receiver.Method". Everything statically
// reachable from these inside their own package is the hot path: it runs
// once (or more) per simulated bit and must stay allocation-free. Every
// name must resolve to a declaration (TestHotPathRootsResolve): a stale
// one would silently drop its function from the check.
var HotPathRoots = []string{
	"repro/internal/bus.Network.Step",
	"repro/internal/node.Controller.Drive",
	"repro/internal/node.Controller.View",
	"repro/internal/node.Controller.Latch",
	"repro/internal/bitstream.Wire",
	"repro/internal/bitstream.Stuffer.Push",
	"repro/internal/bitstream.Destuffer.Push",
	"repro/internal/bitstream.CRC15.Push",
	"repro/internal/frame.Assembler.Push",
	// The transmit encoding, refilled in place when the queue head
	// changes (reached from the controller's roots, in another package).
	"repro/internal/frame.Encoding.Refill",
	"repro/internal/errmodel.Random.Disturb",
	"repro/internal/errmodel.GlobalRandom.Disturb",
	// A script's flip table, asked per in-episode station and slot by the
	// fast engine (another package) and by Script.Disturb.
	"repro/internal/errmodel.Script.FireEOF",
	// The end-of-frame episode: each policy's step functions, and the
	// steps they share as methods of node.Episode (called from core, so
	// not reachable from the controller's roots inside node).
	"repro/internal/core.Standard.Drive",
	"repro/internal/core.Standard.Latch",
	"repro/internal/core.Standard.Phase",
	"repro/internal/core.MinorCAN.Drive",
	"repro/internal/core.MinorCAN.Latch",
	"repro/internal/core.MinorCAN.Phase",
	"repro/internal/core.MajorCAN.Drive",
	"repro/internal/core.MajorCAN.Latch",
	"repro/internal/core.MajorCAN.Phase",
	"repro/internal/node.Episode.StartFlag",
	"repro/internal/node.Episode.Reject",
	"repro/internal/node.Episode.CountFlag",
	"repro/internal/node.Episode.Drive",
	"repro/internal/node.Episode.Detected",
	"repro/internal/node.Episode.CleanEnd",
	"repro/internal/node.Episode.Finish",
	// The fast bit-slot engine: Advance is the per-slot entry the bus
	// delegates to, and the node/bus seams below are what it calls per
	// slot or per fast-forward window. They are roots of their own
	// because the analyzer propagates reachability only within a package:
	// without them the engine's side of the per-bit contract would go
	// unchecked.
	"repro/internal/bus/fastpath.Engine.Advance",
	"repro/internal/bus.Network.CommitSlot",
	"repro/internal/bus.Network.SkipSlots",
	"repro/internal/node.Controller.Transmitting",
	"repro/internal/node.Controller.StartingFrame",
	"repro/internal/node.Controller.EOFRel",
	"repro/internal/node.Controller.TxWindow",
	"repro/internal/node.Controller.MirrorsPipeline",
	"repro/internal/node.Controller.AdoptPipeline",
	"repro/internal/node.Controller.LatchTxWindow",
	"repro/internal/node.Controller.SteadySlots",
	"repro/internal/node.Controller.LatchSteady",
	"repro/internal/frame.ReceivedAtAck",
	"repro/internal/bitstream.DestufferAfter",
	"repro/internal/bitstream.CRC15Of",
	"repro/internal/errmodel.Random.Sample",
	"repro/internal/errmodel.Random.CleanAhead",
	"repro/internal/errmodel.Random.SkipClean",
	"repro/internal/errmodel.GlobalRandom.SampleSlot",
}

// FuncQualifiedName renders a function as "pkgpath.Func" or
// "pkgpath.Receiver.Method" (pointer receivers are spelled without the
// star), the form HotPathRoots uses.
func FuncQualifiedName(f *types.Func) string {
	if f.Pkg() == nil {
		return f.Name()
	}
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return f.Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
		}
	}
	return f.Pkg().Path() + "." + f.Name()
}

// CalleeFunc resolves the static callee of a call expression, or nil for
// calls through function values, builtins and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// IsPkgFunc reports whether f is a package-level function (or method)
// of the package with the given import path and one of the given names.
func IsPkgFunc(f *types.Func, pkgPath string, names ...string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}
