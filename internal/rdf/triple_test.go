package rdf

import (
	"sort"
	"testing"
)

func tr(s, p, o string) Triple {
	return Triple{S: NewIRI(s), P: NewIRI(p), O: NewIRI(o)}
}

func TestTripleValidate(t *testing.T) {
	ok := Triple{S: NewIRI("http://x/s"), P: NewIRI("http://x/p"), O: NewLiteral("v")}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid triple rejected: %v", err)
	}
	blankSubj := Triple{S: NewBlank("b"), P: NewIRI("http://x/p"), O: NewIRI("http://x/o")}
	if err := blankSubj.Validate(); err != nil {
		t.Errorf("blank subject should be admitted: %v", err)
	}
	bad := []Triple{
		{S: NewLiteral("x"), P: NewIRI("p"), O: NewIRI("o")},
		{S: Term{}, P: NewIRI("p"), O: NewIRI("o")},
		{S: NewIRI("s"), P: NewLiteral("p"), O: NewIRI("o")},
		{S: NewIRI("s"), P: NewBlank("p"), O: NewIRI("o")},
		{S: NewIRI("s"), P: NewIRI("p"), O: Term{}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: invalid triple accepted: %v", i, b)
		}
	}
}

func TestTripleCompareTotalOrder(t *testing.T) {
	ts := []Triple{
		tr("http://x/b", "http://x/p", "http://x/o"),
		tr("http://x/a", "http://x/q", "http://x/o"),
		tr("http://x/a", "http://x/p", "http://x/z"),
		tr("http://x/a", "http://x/p", "http://x/o"),
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	want := []Triple{
		tr("http://x/a", "http://x/p", "http://x/o"),
		tr("http://x/a", "http://x/p", "http://x/z"),
		tr("http://x/a", "http://x/q", "http://x/o"),
		tr("http://x/b", "http://x/p", "http://x/o"),
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
}
