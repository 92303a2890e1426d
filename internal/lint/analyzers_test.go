package lint_test

import (
	"testing"

	"elinda/internal/lint"
	"elinda/internal/lint/linttest"
)

func TestSnapshotBind(t *testing.T) {
	linttest.Run(t, lint.SnapshotBind, "elinda/internal/incremental")
}

func TestSliceEscape(t *testing.T) {
	linttest.Run(t, lint.SliceEscape, "sliceescapefix")
}

func TestCtxLoop(t *testing.T) {
	linttest.Run(t, lint.CtxLoop, "elinda/internal/sparql")
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, lint.MapOrder, "maporderfix")
}

func TestLockBalance(t *testing.T) {
	linttest.Run(t, lint.LockBalance, "lockbalancefix")
}

func TestLockBalanceGuardedWrites(t *testing.T) {
	linttest.Run(t, lint.LockBalance, "elinda/internal/rdf")
}

func TestFsyncDiscipline(t *testing.T) {
	linttest.Run(t, lint.FsyncDiscipline, "elinda/internal/wal")
}

func TestByName(t *testing.T) {
	for _, a := range lint.All() {
		if got := lint.ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v, want %v", a.Name, got, a)
		}
	}
	if lint.ByName("nonexistent") != nil {
		t.Error("ByName(nonexistent) should be nil")
	}
}

// TestRepoIsClean is the suite's own acceptance gate: the full analyzer
// set over every production package must report nothing, which is what
// `elinda-lint ./...` exiting 0 means.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	dir, err := lint.ModuleDir(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
