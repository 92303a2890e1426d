package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"strings"
)

// request is one HTTP request of a script plus what its answer must
// satisfy.
type request struct {
	// kind names the step for the per-kind latency medians.
	kind string
	// key groups requests whose answers must be byte-equal (the store is
	// static, so equal questions have equal answers); "" skips the check.
	key string
	// target is the path and query string; body, when set, is POSTed as a
	// form.
	target, body string
	// want, when set, must occur in the response body.
	want string
	// triple is the statement an update request writes.
	triple string
}

func (r request) line() string { return r.target + " " + r.body }

func get(kind, path string, q url.Values) request {
	t := path
	if len(q) > 0 {
		t += "?" + q.Encode()
	}
	return request{kind: kind, key: kind + "|" + t, target: t}
}

func sparqlQuery(kind, key, query string) request {
	return request{kind: kind, key: key, target: "/sparql", body: url.Values{"query": {query}}.Encode()}
}

// sparqlUpdate is a single-triple INSERT DATA or DELETE DATA; the
// acknowledgement must report exactly one net change.
func sparqlUpdate(del bool, triple string) request {
	kind, verb, want := "update.insert", "INSERT", `"inserted":1`
	if del {
		kind, verb, want = "update.delete", "DELETE", `"deleted":1`
	}
	update := verb + " DATA { " + triple + " }"
	return request{kind: kind, target: "/sparql", body: url.Values{"update": {update}}.Encode(), want: want, triple: triple}
}

// script yields the k-th op of one client. It is a pure function of
// (seed, client, k), so a run can be replayed in-process and hashed.
type script func(k int) []request

// scriptHash identifies everything the server receives: the dataset and
// the first hashOps ops of every client.
func scriptHash(d *dataset, scripts []script) string {
	const hashOps = 32
	h := sha256.New()
	fmt.Fprintln(h, d.digest)
	for c, s := range scripts {
		for k := 0; k < hashOps; k++ {
			for _, r := range s(k) {
				fmt.Fprintf(h, "%d %d %s\n", c, k, r.line())
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func clientRNG(seed int64, workload string, client int) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, workload, client)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// --- explore_api: the Fig. 4 session ---

// exploreSession is the scripted path owl:Thing → Agent → Person →
// Philosopher → influencedBy connections → ingoing properties → table,
// as the bundled UI issues it: 16 GETs.
func exploreSession() []request {
	class := func(c string) url.Values {
		if c == "" {
			return url.Values{}
		}
		return url.Values{"class": {ont(c)}}
	}
	with := func(v url.Values, k, val string) url.Values {
		out := url.Values{k: {val}}
		for kk, vv := range v {
			out[kk] = vv
		}
		return out
	}
	reqs := []request{get("classes", "/api/classes", url.Values{"q": {"phil"}})}
	for _, c := range []string{"", "Agent", "Person", "Philosopher"} {
		reqs = append(reqs,
			get("pane", "/api/pane", class(c)),
			get("chart.subclass", "/api/chart", with(class(c), "kind", "subclass")),
			get("chart.property", "/api/chart", with(class(c), "kind", "property")),
		)
	}
	phil := class("Philosopher")
	reqs = append(reqs,
		get("connections", "/api/connections", with(phil, "property", influencedBy)),
		get("chart.property-in", "/api/chart", with(phil, "kind", "property-in")),
		get("table", "/api/table", url.Values{"class": {ont("Philosopher")}, "props": {birthPlace, influencedBy}}),
	)
	return reqs
}

func exploreScripts(d *dataset, clients int) []script {
	session := exploreSession()
	out := make([]script, clients)
	for c := range out {
		out[c] = func(int) []request { return session }
	}
	return out
}

// --- sparql_backend: unique drill-down queries ---

// noopLimit is far above any result size, so appending LIMIT noopLimit+n
// changes a query's text (and so its cache key) but not its answer.
const noopLimit = 50_000_000

// backendQuery is one step of the drill-down: a named query shape asked
// about a fixed class and property.
type backendQuery struct{ kind, query string }

// backendQueries are chosen so that at the canonical scale no step is
// more than about a third of the drill-down.
func backendQueries() []backendQuery {
	return []backendQuery{
		{"chart.subclass", subclassChartSPARQL(ont("Person"))},
		// A bar's member set: 30 000 rows, about 2 MB.
		{"bar.set", "SELECT DISTINCT ?s WHERE { ?s a <" + ont("Place") + "> . }"},
		{"chart.object", objectExpansionSPARQL(ont("Person"), birthPlace)},
		// The explorer's data-table query for the Philosopher pane.
		{"table", tableSPARQL(ont("Philosopher"), []string{influencedBy, ont("mainInterest")})},
		{"join.star", "SELECT ?s ?a ?b WHERE { ?s a <" + ont("Politician") + "> . ?s <" + birthPlace + "> ?a . ?s <" + nationality + "> ?b . }"},
		// A cyclic pattern: who was influenced by someone of a type they share.
		{"join.triangle", "SELECT ?a ?b ?t WHERE { ?a <" + influencedBy + "> ?b . ?a a ?t . ?b a ?t . }"},
	}
}

// orders pre-draws a client's seeded walk: walkLen permutations of n
// items. Op k uses permutation k mod walkLen, so the request order comes
// from the seed while every op carries the same work.
func orders(seed int64, workload string, client, n int) [][]int {
	const walkLen = 509
	rng := clientRNG(seed, workload, client)
	out := make([][]int, walkLen)
	for i := range out {
		out[i] = rng.Perm(n)
	}
	return out
}

// backendScripts: op k of client c is one drill-down, the six templates
// in a seeded order. Each request carries a LIMIT no other request of the
// run has, so no two texts are equal and the HVS can never answer. Every
// op carries the same work (the seed varies the data, the order and the
// LIMITs, not the mix): that keeps the op latency distribution narrow,
// which is what makes its median repeatable on a shared two-core box.
func backendScripts(d *dataset, clients int) []script {
	steps := backendQueries()
	out := make([]script, clients)
	for c := range out {
		walk := orders(d.seed, "sparql_backend", c, len(steps))
		out[c] = func(k int) []request {
			reqs := make([]request, len(steps))
			for i, j := range walk[k%len(walk)] {
				n := (k*clients+c)*len(steps) + i
				query := fmt.Sprintf("%s LIMIT %d", strings.TrimSpace(steps[j].query), noopLimit+n)
				reqs[i] = sparqlQuery("sparql."+steps[j].kind, steps[j].kind, query)
			}
			return reqs
		}
	}
	return out
}

// --- sparql_hot: a working set that fits the cache ---

// hotSet is the eight heavy chart queries the UI sends most: property
// expansions the decomposer recognises and object expansions only the
// HVS can shortcut.
func hotSet() []request {
	qs := []struct{ name, q string }{
		{"prop.out.Thing", propertyExpansionSPARQL(owlThing, false)},
		{"prop.out.Agent", propertyExpansionSPARQL(ont("Agent"), false)},
		{"prop.out.Person", propertyExpansionSPARQL(ont("Person"), false)},
		{"prop.out.Politician", propertyExpansionSPARQL(ont("Politician"), false)},
		{"prop.in.Person", propertyExpansionSPARQL(ont("Person"), true)},
		{"prop.in.Philosopher", propertyExpansionSPARQL(ont("Philosopher"), true)},
		{"object.Person.birthPlace", objectExpansionSPARQL(ont("Person"), birthPlace)},
		{"object.Person.deathPlace", objectExpansionSPARQL(ont("Person"), deathPlace)},
	}
	out := make([]request, len(qs))
	for i, q := range qs {
		out[i] = sparqlQuery("sparql.hot", q.name, q.q)
	}
	return out
}

// hotScripts: op k is one pass over the hot set in a seeded order.
func hotScripts(d *dataset, clients int) []script {
	hot := hotSet()
	out := make([]script, clients)
	for c := range out {
		walk := orders(d.seed, "sparql_hot", c, len(hot))
		out[c] = func(k int) []request {
			reqs := make([]request, len(hot))
			for i, j := range walk[k%len(walk)] {
				reqs[i] = hot[j]
			}
			return reqs
		}
	}
	return out
}

// --- mixed_rw: hot reads with writes beside them ---

func tripleText(t triple) string { return "<" + t.S + "> <" + t.P + "> <" + t.O + "> ." }

// mixedScripts: round k of client c is the hot set in a seeded order with
// two updates inside it, one write per four reads: 4 reads, INSERT DATA of
// pool triple k and its read-your-writes ASK, 4 reads, DELETE DATA of the
// triple round k-1 inserted and its ASK. Bodies of reads are not
// compared: the data changes under them.
func mixedScripts(d *dataset, clients int) []script {
	hot := hotSet()
	for i := range hot {
		hot[i].key = ""
		hot[i].want = `"bindings"`
	}
	half := len(d.writePool) / clients
	out := make([]script, clients)
	for c := range out {
		pool := d.writePool[c*half : (c+1)*half]
		walk := orders(d.seed, "mixed_rw", c, len(hot))
		out[c] = func(k int) []request {
			order := walk[k%len(walk)]
			ins := tripleText(pool[k%len(pool)])
			reqs := make([]request, 0, len(hot)+4)
			for _, j := range order[:len(hot)/2] {
				reqs = append(reqs, hot[j])
			}
			reqs = append(reqs, sparqlUpdate(false, ins), askRequest(ins, true))
			for _, j := range order[len(hot)/2:] {
				reqs = append(reqs, hot[j])
			}
			if k > 0 {
				del := tripleText(pool[(k-1)%len(pool)])
				reqs = append(reqs, sparqlUpdate(true, del), askRequest(del, false))
			}
			return reqs
		}
	}
	return out
}

func askRequest(tripleText string, present bool) request {
	r := sparqlQuery("sparql.ask", "", "ASK { "+tripleText+" }")
	r.want = fmt.Sprintf(`"boolean":%v`, present)
	return r
}
