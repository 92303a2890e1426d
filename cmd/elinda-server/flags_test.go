package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// flagSurface is the complete elinda-server flag list. A new flag is a
// reviewed change to this list and to README's tables.
var flagSurface = []string{
	"acquire-timeout", "addr", "cache-bytes", "drain", "heavy", "load",
	"max-inflight", "remote", "snapshot-load", "snapshot-save", "timeout",
	"wal-dir", "wal-sync", "wal-sync-interval",
}

// removedFlags selected paths that no longer exist; each must be rejected
// as unknown rather than silently accepted.
var removedFlags = []string{
	"no-coalesce", "ingest-workers", "query-workers", "inc-workers", "inc-chunk", "inc-rounds", "flush-rows",
	"role", "fleet-coordinator", "fleet-dir", "fleet-poll", "fleet-replicas", "fleet-fallback",
	"probe-interval", "retry-budget", "hedge-delay", "no-hedge", "breaker-failures", "breaker-open",
	"hvs-snapshot", "no-hvs", "no-decomposer", "warm", "persons",
}

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("elinda-server", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs)
	return fs
}

func TestFlagSurface(t *testing.T) {
	defaults := map[string]string{}
	var names []string
	newFlagSet().VisitAll(func(f *flag.Flag) {
		names = append(names, f.Name) // VisitAll is sorted by name
		defaults[f.Name] = f.DefValue
	})
	if !slices.Equal(names, flagSurface) {
		t.Errorf("registered flags:\n %v\nwant:\n %v", names, flagSurface)
	}
	for _, name := range removedFlags {
		if err := newFlagSet().Parse([]string{"-" + name + "=1"}); err == nil {
			t.Errorf("removed flag -%s still parses", name)
		}
	}

	// README documents every flag exactly once, with the default the
	// binary registers. Rows read "| `-name` | [role |] default | text |";
	// the default is the cell before the text, — meaning empty.
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `-([a-z-]+)`.*\\|$")
	documented := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		cells := strings.Split(strings.ReplaceAll(m[0], `\|`, "/"), "|")
		def := strings.Trim(strings.TrimSpace(cells[len(cells)-3]), "`")
		if def == "—" {
			def = ""
		}
		if _, dup := documented[m[1]]; dup {
			t.Errorf("README documents -%s twice", m[1])
		}
		documented[m[1]] = def
	}
	for name, def := range defaults {
		got, ok := documented[name]
		if !ok {
			t.Errorf("README's flag tables do not list -%s", name)
		} else if got != def {
			t.Errorf("README gives -%s the default %q, the binary registers %q", name, got, def)
		}
	}
	for name := range documented {
		if _, ok := defaults[name]; !ok {
			t.Errorf("README lists -%s, which the binary does not register", name)
		}
	}
}

// TestReadmeBinaries holds README's "Binaries" table to the directories
// under cmd/, so an added or deleted binary cannot drift from the docs.
func TestReadmeBinaries(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `cmd/([a-z-]+)`").FindAllStringSubmatch(string(readme), -1) {
		documented = append(documented, m[1])
	}
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	var binaries []string
	for _, e := range entries {
		if e.IsDir() {
			binaries = append(binaries, e.Name())
		}
	}
	slices.Sort(documented)
	slices.Sort(binaries)
	if !slices.Equal(documented, binaries) {
		t.Errorf("README's Binaries table lists %v, cmd/ holds %v", documented, binaries)
	}
}
