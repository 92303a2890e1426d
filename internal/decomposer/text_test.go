package decomposer_test

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"elinda/internal/core"
	"elinda/internal/decomposer"
	"elinda/internal/endpoint"
	"elinda/internal/hvs"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

func node(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://example.org/n%d", i)) }

func class(c int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://example.org/C%d", c)) }

func link(r *rand.Rand) rdf.Triple {
	return rdf.Triple{S: node(r.Intn(30)), P: rdf.NewIRI(fmt.Sprintf("http://example.org/p%d", r.Intn(4))), O: node(r.Intn(30))}
}

// linkDelta is one to three link inserts, or deletes of present links.
func linkDelta(r *rand.Rand, st *store.Store) store.Delta {
	var d store.Delta
	for k := 1 + r.Intn(3); k > 0; k-- {
		if r.Intn(2) == 0 {
			d.Insert(link(r))
			continue
		}
		var live rdf.Triple
		st.Snapshot().Scan(r.Intn(st.Len()), 1, func(e rdf.EncodedTriple) bool {
			live = st.Dict().Decode(e)
			return false
		})
		if live.P != rdf.TypeIRI {
			d.Delete(live)
		}
	}
	return d
}

// textQueries are the property-expansion texts the differential reads:
// both directions of two classes as the explorer writes them, the same
// expansion of C0 under two more namings of its variables (the paper's
// two-level form renamed, and the single-level form), two whitespace
// variants of one text, and an ORDER BY variant, whose answer is not
// shared. ordered marks the ORDER BY text.
func textQueries() (texts []string, ordered []bool) {
	c0 := class(0).String()
	for c := 0; c < 2; c++ {
		texts = append(texts, core.PropertyExpansionSPARQL(class(c), false), core.PropertyExpansionSPARQL(class(c), true))
	}
	base := texts[0]
	texts = append(texts,
		`SELECT ?prop COUNT(?prop) AS ?n SUM(?k) AS ?k2
FROM {SELECT ?x ?prop count(*) AS ?k
FROM {?x a `+c0+`. ?x ?prop ?y.}
GROUP BY ?x ?prop} GROUP BY ?prop`,
		`SELECT ?q (COUNT(DISTINCT ?x) AS ?c) (COUNT(*) AS ?t) WHERE { ?x a `+c0+` . ?x ?q ?y . } GROUP BY ?q`,
		"  "+strings.Join(strings.Fields(base), " \n\t "),
		strings.Join(strings.Fields(base), "  ")+"\n",
		base+` ORDER BY DESC(?count) ?p`,
	)
	ordered = make([]bool, len(texts))
	ordered[len(texts)-1] = true
	return texts, ordered
}

// memoOrder puts a property expansion's rows in the decomposer's order:
// descending subject count, then property label, then property ID.
func memoOrder(snap *store.Snapshot, res *sparql.Result) {
	type key struct {
		count int
		label string
		id    rdf.ID
	}
	keyOf := func(row sparql.Solution) key {
		n, _ := strconv.Atoi(row[res.Vars[1]].Value)
		id, _ := snap.Dict().Lookup(row[res.Vars[0]])
		return key{n, snap.Label(id), id}
	}
	slices.SortFunc(res.Rows, func(a, b sparql.Solution) int {
		ka, kb := keyOf(a), keyOf(b)
		if c := cmp.Compare(kb.count, ka.count); c != 0 {
			return c
		}
		if c := strings.Compare(ka.label, kb.label); c != 0 {
			return c
		}
		return cmp.Compare(ka.id, kb.id)
	})
}

// bodies are one answer in SPARQL JSON and in TSV.
type bodies struct{ json, tsv []byte }

// engineBodies are the engine's answers to texts on st now; an unordered
// answer's rows are put in the decomposer's order.
func engineBodies(t *testing.T, st *store.Store, texts []string, ordered []bool) []bodies {
	t.Helper()
	eng := sparql.NewEngine(st)
	out := make([]bodies, len(texts))
	for i, src := range texts {
		res, err := eng.Query(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if !ordered[i] {
			memoOrder(st.Snapshot(), res)
		}
		tab := sparql.TableOf(res)
		out[i] = bodies{encode(t, tab, endpoint.ContentType), encode(t, tab, endpoint.ContentTypeTSV)}
	}
	return out
}

func encode(t *testing.T, tab *sparql.Table, contentType string) []byte {
	t.Helper()
	body, ok := endpoint.EncodeBody(tab, contentType)
	if !ok {
		t.Fatal("EncodeBody refused a small answer")
	}
	return body
}

// checkRendering fails unless rend — its table, in JSON and TSV, and its
// result, in JSON — encodes as want.
func checkRendering(t *testing.T, rend *decomposer.Rendering, want bodies, what string) {
	t.Helper()
	for _, got := range []struct {
		name       string
		body, want []byte
	}{
		{"table as JSON", encode(t, rend.Table(), endpoint.ContentType), want.json},
		{"table as TSV", encode(t, rend.Table(), endpoint.ContentTypeTSV), want.tsv},
		{"result as JSON", encode(t, sparql.TableOf(rend.Result()), endpoint.ContentType), want.json},
	} {
		if !bytes.Equal(got.body, got.want) {
			t.Fatalf("%s: the rendering's %s\n%s\nengine\n%s", what, got.name, got.body, got.want)
		}
	}
}

// TestTextRenderingsEqualEngine is the differential for the memo's
// renderings by query text. Reads of repeated texts through
// Proxy.QueryBody — several namings of one class, whitespace variants,
// an ORDER BY variant — interleave with link writes through Apply (the
// memo folds them), rdf:type writes through Apply (the memo drops), and
// link writes straight to the store (the next read drops the memo). Every
// answer must be the engine's at the read's generation, byte for byte in
// SPARQL JSON. After each write a read bound to the generation before it
// asks the decomposer for the text directly: a rendering it hands out
// must be the engine's answer at the memo's generation, which the store
// published after that read arrived. After a link write through Apply the
// memo folds, every text read since the memo was last dropped must be
// found at the new generation with no parse, rendered again from the
// folded entry, and equal the engine's answer there in JSON and in TSV;
// after an rdf:type write no text may be found. And the number of texts
// the decomposer keeps must be the number of shared-answer texts read
// since the memo was last dropped.
func TestTextRenderingsEqualEngine(t *testing.T) {
	texts, ordered := textQueries()
	norm := make([]string, len(texts))
	for i, src := range texts {
		norm[i] = hvs.Normalize(src)
	}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		var initial []rdf.Triple
		for i := 0; i < 30; i++ {
			initial = append(initial, rdf.Triple{S: node(i), P: rdf.TypeIRI, O: class(r.Intn(2))})
		}
		for i := 0; i < 150; i++ {
			initial = append(initial, link(r))
		}
		st := store.New(256)
		if _, err := st.Load(initial); err != nil {
			t.Fatal(err)
		}
		p := proxy.New(st, proxy.Options{HeavyThreshold: time.Hour})
		d := p.Decomposer()
		history := map[uint64][]bodies{st.Generation(): engineBodies(t, st, texts, ordered)}

		// shown models the texts the decomposer keeps: the shared-answer
		// texts read since the memo was dropped. A write that bypassed
		// Apply drops it on the decomposer's next read or write.
		shown := map[string]bool{}
		pendingDrop := true
		var hits, folds, foldedHits, staleHits, staleMisses int

		write := func(kind string) {
			before := st.Generation()
			var res store.ApplyResult
			var err error
			switch kind {
			case "link":
				res, err = p.Apply(linkDelta(r, st))
			case "type":
				tr := rdf.Triple{S: node(r.Intn(30)), P: rdf.TypeIRI, O: class(r.Intn(2))}
				op := rdf.Insert(tr)
				if st.Snapshot().ContainsTriple(tr) {
					op = rdf.Delete(tr)
				}
				res, err = p.Apply(store.DeltaOf(op))
			case "bypass":
				res, err = st.Apply(linkDelta(r, st))
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.Changed() {
				return
			}
			folded := false
			switch {
			case kind == "bypass":
				pendingDrop = true
			case kind == "type" || pendingDrop:
				clear(shown)
				pendingDrop = false
			default:
				folds++
				folded = true
			}
			history[res.To] = engineBodies(t, st, texts, ordered)
			// A read bound to the snapshot before the write.
			for i, text := range norm {
				rend := d.Lookup(text, before)
				if rend == nil {
					staleMisses++
					continue
				}
				staleHits++
				at := decomposer.MemoGeneration(d)
				if at < before {
					t.Fatalf("seed %d: a read at generation %d was answered at %d", seed, before, at)
				}
				checkRendering(t, rend, history[at][i], fmt.Sprintf("seed %d: after a %s write, a read at generation %d of %q", seed, kind, before, texts[i]))
			}
			// A read at the new generation finds exactly the texts kept.
			for i, text := range norm {
				rend := d.Lookup(text, res.To)
				if want := folded && shown[text]; (rend != nil) != want {
					t.Fatalf("seed %d: after a %s write, lookup of %q at generation %d: found %v, want %v", seed, kind, texts[i], res.To, rend != nil, want)
				}
				if rend != nil {
					foldedHits++
					checkRendering(t, rend, history[res.To][i], fmt.Sprintf("seed %d: after a %s write, a read at generation %d of %q", seed, kind, res.To, texts[i]))
				}
			}
		}

		for step := 0; step < 300; step++ {
			switch k := r.Intn(20); {
			case k < 3:
				write("link")
			case k < 4:
				write("type")
			case k < 6:
				write("bypass")
			default:
				i := r.Intn(len(texts))
				gen := st.Generation()
				if d.Lookup(norm[i], gen) != nil {
					hits++
				}
				tab, body, err := p.QueryBody(context.Background(), texts[i], endpoint.ContentType)
				if err != nil {
					t.Fatal(err)
				}
				if body == nil {
					body = encode(t, tab, endpoint.ContentType)
				}
				if !bytes.Equal(body, history[gen][i].json) {
					t.Fatalf("seed %d step %d: served %q at generation %d\n%s\nengine\n%s", seed, step, texts[i], gen, body, history[gen][i].json)
				}
				if pendingDrop {
					clear(shown)
					pendingDrop = false
				}
				if !ordered[i] {
					shown[norm[i]] = true
				}
			}
			if n := decomposer.ShownTexts(d); n != len(shown) {
				t.Fatalf("seed %d step %d: the decomposer keeps %d texts, %d were read since the memo was dropped", seed, step, n, len(shown))
			}
		}
		if hits == 0 || folds == 0 || foldedHits == 0 || staleHits == 0 || staleMisses == 0 {
			t.Fatalf("seed %d: a case never ran: %d text hits, %d folds, %d folded-text hits, %d older-generation hits, %d older-generation misses",
				seed, hits, folds, foldedHits, staleHits, staleMisses)
		}
		t.Logf("seed %d: %d text hits, %d folds, %d folded-text hits, %d older-generation hits", seed, hits, folds, foldedHits, staleHits)
	}
}
