package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"elinda"
	"elinda/internal/rdf"
)

func testRepl(t *testing.T) (*repl, *bytes.Buffer) {
	t.Helper()
	sys, err := openSystem("", "dbpedia", 300)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r := &repl{sys: sys, out: &buf}
	r.banner()
	buf.Reset()
	return r, &buf
}

func TestReplBanner(t *testing.T) {
	sys, err := openSystem("", "dbpedia", 200)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r := &repl{sys: sys, out: &buf}
	r.banner()
	out := buf.String()
	for _, want := range []string{"eLinda", "triples", "Pane: Thing", "Agent"} {
		if !strings.Contains(out, want) {
			t.Errorf("banner missing %q:\n%s", want, out)
		}
	}
}

func TestReplDrillDown(t *testing.T) {
	r, buf := testRepl(t)
	r.dispatch("open Agent")
	if !strings.Contains(buf.String(), "Thing → Agent") {
		t.Errorf("breadcrumb missing:\n%s", buf.String())
	}
	buf.Reset()
	r.dispatch("open Person")
	if !strings.Contains(buf.String(), "Philosopher") {
		t.Errorf("Person pane missing subclasses:\n%s", buf.String())
	}
	buf.Reset()
	r.dispatch("path")
	if !strings.Contains(buf.String(), "Thing → Agent → Person") {
		t.Errorf("path = %s", buf.String())
	}
	buf.Reset()
	r.dispatch("back")
	if !strings.Contains(buf.String(), "Thing → Agent") {
		t.Errorf("back = %s", buf.String())
	}
}

func TestReplOpenByAutocomplete(t *testing.T) {
	r, buf := testRepl(t)
	// Philosopher is not a bar of the root chart; goes via search.
	r.dispatch("open Philosopher")
	if !strings.Contains(buf.String(), "Pane: Philosopher") {
		t.Errorf("autocomplete open failed:\n%s", buf.String())
	}
}

func TestReplProps(t *testing.T) {
	r, buf := testRepl(t)
	r.dispatch("open Philosopher")
	buf.Reset()
	r.dispatch("props")
	if !strings.Contains(buf.String(), "influencedBy") {
		t.Errorf("props output:\n%s", buf.String())
	}
	buf.Reset()
	r.dispatch("inprops")
	if !strings.Contains(buf.String(), "author") {
		t.Errorf("inprops output:\n%s", buf.String())
	}
	buf.Reset()
	r.dispatch("props 0.9")
	if strings.Contains(buf.String(), "influencedBy") {
		t.Errorf("0.9 threshold should hide influencedBy (60%%):\n%s", buf.String())
	}
	buf.Reset()
	r.dispatch("props abc")
	if !strings.Contains(buf.String(), "bad threshold") {
		t.Errorf("bad threshold unreported:\n%s", buf.String())
	}
}

func TestReplConnectAndSparql(t *testing.T) {
	r, buf := testRepl(t)
	r.dispatch("open Philosopher")
	buf.Reset()
	r.dispatch("connect influencedBy")
	out := buf.String()
	if !strings.Contains(out, "Scientist") {
		t.Errorf("connections output:\n%s", out)
	}
	buf.Reset()
	r.dispatch("sparql Scientist")
	if !strings.Contains(buf.String(), "SELECT DISTINCT") {
		t.Errorf("sparql output:\n%s", buf.String())
	}
	buf.Reset()
	r.dispatch("connect nosuchprop")
	if !strings.Contains(buf.String(), "not found") {
		t.Errorf("missing prop unreported:\n%s", buf.String())
	}
}

func TestReplTable(t *testing.T) {
	r, buf := testRepl(t)
	r.dispatch("open Philosopher")
	buf.Reset()
	r.dispatch("table birthPlace influencedBy")
	out := buf.String()
	if !strings.Contains(out, "instance") || !strings.Contains(out, "birthPlace") {
		t.Errorf("table output:\n%s", out)
	}
	buf.Reset()
	r.dispatch("table")
	if !strings.Contains(buf.String(), "usage") {
		t.Errorf("usage missing:\n%s", buf.String())
	}
}

func TestReplSearchHelpStatsUnknown(t *testing.T) {
	r, buf := testRepl(t)
	r.dispatch("search pol")
	if !strings.Contains(buf.String(), "Politician") {
		t.Errorf("search output:\n%s", buf.String())
	}
	buf.Reset()
	r.dispatch("help")
	if !strings.Contains(buf.String(), "connect <property>") {
		t.Errorf("help output:\n%s", buf.String())
	}
	buf.Reset()
	r.dispatch("stats")
	if !strings.Contains(buf.String(), "Triples") {
		t.Errorf("stats output:\n%s", buf.String())
	}
	buf.Reset()
	r.dispatch("bogus")
	if !strings.Contains(buf.String(), "unknown command") {
		t.Errorf("unknown command unreported:\n%s", buf.String())
	}
	buf.Reset()
	r.dispatch("search zzzz")
	if !strings.Contains(buf.String(), "no matches") {
		t.Errorf("no matches unreported:\n%s", buf.String())
	}
}

func TestReplLGDDataset(t *testing.T) {
	sys, err := openSystem("", "lgd", 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r := &repl{sys: sys, out: &buf}
	r.banner()
	out := buf.String()
	if !strings.Contains(out, "All instances") {
		t.Errorf("rootless banner should show the virtual root pane:\n%s", out)
	}
	if !strings.Contains(out, "Amenity") {
		t.Errorf("LGD top classes missing:\n%s", out)
	}
}

func TestOpenSystemFromFile(t *testing.T) {
	ds := elinda.GenerateDBpediaLike(elinda.DataConfig{Seed: 4, Persons: 50, PoliticianProps: 40})
	dir := t.TempDir()
	path := dir + "/d.nt"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sys0, err := elinda.Open(ds.Triples)
	if err != nil {
		t.Fatal(err)
	}
	_ = sys0
	for _, tr := range ds.Triples {
		if _, err := f.WriteString(tr.String() + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	sys, err := openSystem(path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Store.Len() != len(ds.Triples) {
		t.Errorf("loaded %d, want %d", sys.Store.Len(), len(ds.Triples))
	}
	if _, err := openSystem(dir+"/missing.nt", "", 0); err == nil {
		t.Error("missing file accepted")
	}
}

// TestOpenSystemDetectsTurtleExtension pins the server's syntax rule
// (rdf.DetectFormat): an upper-case .TTL file is read as Turtle.
func TestOpenSystemDetectsTurtleExtension(t *testing.T) {
	ds := elinda.GenerateDBpediaLike(elinda.DataConfig{Seed: 4, Persons: 20, PoliticianProps: 10})
	var doc bytes.Buffer
	if err := rdf.WriteTurtle(&doc, ds.Triples); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/d.TTL"
	if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := openSystem(path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Store.Len() != len(ds.Triples) {
		t.Errorf("loaded %d, want %d", sys.Store.Len(), len(ds.Triples))
	}
}
