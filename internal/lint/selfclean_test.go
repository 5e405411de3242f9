package lint_test

import (
	"os/exec"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/atomicmix"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/determinism"
	"repro/internal/lint/errsink"
	"repro/internal/lint/eventcontract"
	"repro/internal/lint/goleak"
	"repro/internal/lint/hotpath"
	"repro/internal/lint/lockorder"
)

// TestRepoIsClean pins the whole tree at zero findings: every
// intentional exception carries a reasoned //lint:allow, so any new
// diagnostic is a regression in either the code or the annotations.
func TestRepoIsClean(t *testing.T) {
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	pkgs, err := lint.LoadPackages(root, "./...")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{
		atomicmix.Analyzer,
		ctxflow.Analyzer,
		determinism.Analyzer,
		errsink.Analyzer,
		eventcontract.Analyzer,
		goleak.Analyzer,
		hotpath.Analyzer,
		lockorder.Analyzer,
	})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestHotPathRootsResolve requires every lint.HotPathRoots name to
// resolve, through the call graph the analyzers build, to a function
// declared in the module. CallGraph.Roots skips a name that matches
// nothing, so a root left behind by a rename would silently drop its
// function, and everything only it reaches, from the hot-path check.
func TestHotPathRootsResolve(t *testing.T) {
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	pkgs, err := lint.LoadPackages(root, "./...")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	resolved := make(map[string]bool)
	for _, pkg := range pkgs {
		g := lint.NewCallGraph(&lint.Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info})
		for _, fn := range g.Roots(lint.HotPathRoots) {
			resolved[lint.FuncQualifiedName(fn)] = true
		}
	}
	for _, name := range lint.HotPathRoots {
		if !resolved[name] {
			t.Errorf("hot-path root %s matches no declaration", name)
		}
	}
}

// TestMultichecker runs the installed driver end to end, pinning its
// exit status and the flag plumbing on a clean tree.
func TestMultichecker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	cmd := exec.Command("go", "run", "./cmd/majorcanlint", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("majorcanlint ./... should be clean, got: %v\n%s", err, out)
	}
}
