// Package decomposer implements the eLinda decomposer (Section 4): it
// detects the heavy property-expansion SPARQL queries that eLinda emits
// and answers them from specialized aggregate indexes instead of routing
// them through the generic engine, which would "include a complex join
// with hundreds of millions of tuples as an intermediate result".
//
// The paper's example query (outgoing property expansion at owl:Thing):
//
//	SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
//	FROM {SELECT ?s ?p count(*) AS ?sp
//	      FROM {?s a owl:Thing. ?s ?p ?o.}
//	      GROUP BY ?s ?p} GROUP BY ?p
//
// The detector recognizes this two-level shape (and the equivalent
// single-level COUNT(DISTINCT ?s) form) for both outgoing and incoming
// directions, extracts the class constant, and computes the per-property
// (subject count, triple count) aggregates with the store's one
// property-distribution kernel (store.Snapshot.PropertyCounts, the
// counting pass the explorer's property chart shares): it reads each
// instance's SPO or OSP group offsets instead of visiting its triples —
// the Go analogue of the paper's "decomposition of SQL queries that
// utilizes the indexes".
//
// The aggregates are memoized per (class, direction) and maintained, not
// dropped, across writes: ApplyDelta, a store.Carry, folds a write's net
// triples into every entry (an incremental model merged with its delta
// rather than rebuilt) before the store publishes the write. A write that
// changes class membership, or one the memo did not see (a bare
// Store.Apply, WAL replay), drops the memo instead, and the kernel
// rebuilds each entry on its next read — the kernel is the only rebuild
// path. A kernel pass overtaken by a write answers its own read and is
// not stored.
//
// The memo is the one home of a property-expansion answer (the HVS never
// keeps one); a repeated query text is a lookup, with no parse (Lookup),
// and after a fold the text is rendered again from the folded entry, still
// with no parse. An answer is rendered as ID rows (a sparql.Table of the
// entry's property terms and counts); the map per row that in-process
// callers read is built once per rendering, on their first read.
//
// The package also recognises the explorer's object expansion
// (DetectObject), which it does not answer: the engine computes it and
// the HVS keeps it, and FoldObject merges each write into the cached
// answer in the same incremental style.
package decomposer

import (
	"slices"
	"sort"
	"strconv"
	"sync"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// Direction distinguishes outgoing from incoming property expansions.
type Direction uint8

const (
	// Outgoing counts properties leaving the instance set (?s ?p ?o).
	Outgoing Direction = iota
	// Incoming counts properties entering the instance set (?o ?p ?s).
	Incoming
)

// String returns "outgoing" or "incoming".
func (d Direction) String() string {
	if d == Incoming {
		return "incoming"
	}
	return "outgoing"
}

// PropStat is the aggregate for one property over a class's instances.
type PropStat struct {
	// Property is the property ID.
	Property rdf.ID
	// Subjects is the number of distinct instances featuring the property
	// (the COUNT(?p) of the outer query — one row per subject survives the
	// inner GROUP BY ?s ?p).
	Subjects int
	// Triples is the total number of matching triples (the SUM(?sp)).
	Triples int
}

// Decomposer answers detected property-expansion queries from indexes.
// Computed aggregates are memoized per (class, direction) — the paper's
// "specialized index", built lazily. The memo belongs to one store
// generation, which only moves forward and is always one the store has
// published: ApplyDelta carries the memo across a write and publishes the
// write under the memo's lock, a read binds its snapshot under that lock,
// and a read finding the store newer than the memo (a write that bypassed
// ApplyDelta) drops it. A request that arrived before a write the memo
// has carried is answered from the memo (Lookup).
type Decomposer struct {
	st *store.Store

	mu sync.Mutex
	// generation is the store generation every memo entry was computed
	// or folded at.
	generation uint64
	memo       map[memoKey]*memoEntry
	// shown maps a normalized query text (hvs.Normalize) to its latest
	// rendering, whose key the memo always holds (possibly with a newer
	// entry); cleared with the memo, and at maxShown texts.
	shown map[string]*Rendering
	stats Stats
}

// Stats counts the memo's drops by cause and the kernel passes by fate.
// A drop is counted when it empties a memo holding an entry.
type Stats struct {
	// DropsNewerRead counts drops by a read that found the store at a
	// newer generation than the memo: a write that bypassed ApplyDelta.
	DropsNewerRead int
	// DropsUnfoldable counts drops by a write on rdf:type or
	// rdfs:subClassOf, which changes class membership.
	DropsUnfoldable int
	// DropsMissedWrite counts drops by ApplyDelta finding the memo behind
	// the write's From: a write it never saw came first.
	DropsMissedWrite int
	// PassesStored counts kernel passes whose entry the memo stored.
	PassesStored int
	// PassesDiscarded counts kernel passes whose entry the memo did not
	// store: one overtaken by a write answers its own read, and one that
	// another pass for the same entry beat answers with that pass's entry.
	PassesDiscarded int
}

const maxShown = 1024

type memoKey struct {
	class rdf.ID
	dir   Direction
}

// memoEntry is one memoized aggregate: the stats in rank order and, at
// the same index, each one's property label, which the rank reads and a
// fold reuses. An entry never changes once it is published: ApplyDelta
// folds into a new entry.
type memoEntry struct {
	stats  []PropStat
	labels []string
}

// Rendering is an answer to one query text, as ID rows, shared by every
// request with the text while the memo holds the entry it renders: the
// table, the result made from it on first demand, and its bodies by
// content type.
type Rendering struct {
	tab   *sparql.Table
	key   memoKey
	vars  []string   // the text's result variables (Detection.resultVars)
	entry *memoEntry // nil for an answer never kept (solution modifiers, unknown class)

	once   sync.Once
	res    *sparql.Result
	bodies sync.Map // content type → []byte
}

// Table returns the answer as ID rows. It is shared: callers must not
// modify it.
func (r *Rendering) Table() *sparql.Table { return r.tab }

// Result returns the answer with one Solution map per row, built on the
// first call and shared by every later one: callers must not modify it.
func (r *Rendering) Result() *sparql.Result {
	r.once.Do(func() { r.res = r.tab.Result() })
	return r.res
}

// Body returns the body kept for contentType, nil when none is.
func (r *Rendering) Body(contentType string) []byte {
	b, _ := r.bodies.Load(contentType)
	data, _ := b.([]byte)
	return data
}

// KeepBody keeps data as the answer encoded in contentType.
func (r *Rendering) KeepBody(contentType string, data []byte) { r.bodies.Store(contentType, data) }

// New returns a decomposer over st.
func New(st *store.Store) *Decomposer {
	return &Decomposer{st: st, memo: make(map[memoKey]*memoEntry), shown: make(map[string]*Rendering)}
}

// Detection is the outcome of analyzing a query.
type Detection struct {
	// Class is the constant class term of the type triple.
	Class rdf.Term
	// Dir is the expansion direction.
	Dir Direction
	// PropVar, CountVar, SumVar are the output variable names to use in
	// the produced result (SumVar may be empty for single-level queries).
	PropVar, CountVar, SumVar string
}

// Detect analyzes a parsed query and reports whether it is a property
// expansion the decomposer can answer.
func Detect(q *sparql.Query) (Detection, bool) {
	if q == nil || q.Ask || q.Distinct || len(q.Having) > 0 {
		return Detection{}, false
	}
	if len(q.GroupBy) != 1 {
		return Detection{}, false
	}
	groupVar := q.GroupBy[0]

	// Two-level (paper) form: subselect GROUP BY ?s ?p with COUNT(*).
	if len(q.Where.Values) > 0 {
		return Detection{}, false // VALUES restricts the rows the indexes would count
	}
	var det Detection
	var ok bool
	switch {
	case len(q.Where.SubSelects) == 1 && len(q.Where.Triples) == 0 &&
		len(q.Where.Filters) == 0 && len(q.Where.Optionals) == 0 && len(q.Where.Unions) == 0:
		det, ok = detectTwoLevel(q, groupVar)
	// Single-level form: SELECT ?p (COUNT(DISTINCT ?s) AS ?c) [ (COUNT(*) AS ?t) ]
	case len(q.Where.SubSelects) == 0 && len(q.Where.Triples) == 2 &&
		len(q.Where.Filters) == 0 && len(q.Where.Optionals) == 0 && len(q.Where.Unions) == 0:
		det, ok = detectSingleLevel(q, groupVar)
	}
	// An answer binds each result variable once: a name projected twice
	// is the engine's to resolve.
	if !ok || det.CountVar == det.PropVar || det.SumVar != "" && (det.SumVar == det.PropVar || det.SumVar == det.CountVar) {
		return Detection{}, false
	}
	return det, true
}

func detectTwoLevel(q *sparql.Query, groupVar string) (Detection, bool) {
	sub := q.Where.SubSelects[0]
	if sub.Distinct || sub.Limit >= 0 || sub.Offset > 0 || len(sub.GroupBy) != 2 {
		return Detection{}, false
	}
	if len(sub.Where.Triples) != 2 || len(sub.Where.SubSelects) != 0 || len(sub.Where.Values) != 0 ||
		len(sub.Where.Filters) != 0 || len(sub.Where.Optionals) != 0 || len(sub.Where.Unions) != 0 {
		return Detection{}, false
	}
	typeVar, class, propVar, dir, ok := classifyPatterns(sub.Where.Triples)
	if !ok {
		return Detection{}, false
	}
	// Inner grouping must be exactly {typeVar, propVar}.
	if !slices.Contains(sub.GroupBy, typeVar) || !slices.Contains(sub.GroupBy, propVar) {
		return Detection{}, false
	}
	// Inner projection: ?s, ?p, COUNT(*) AS ?sp.
	innerSumVar := ""
	for _, it := range sub.Items {
		switch {
		case it.Expr == nil && (it.Var == typeVar || it.Var == propVar):
		case it.Expr != nil:
			agg, isAgg := it.Expr.(*sparql.AggExpr)
			if !isAgg || agg.Op != "COUNT" || !agg.Star || innerSumVar != "" {
				return Detection{}, false
			}
			innerSumVar = it.Var
		default:
			return Detection{}, false
		}
	}
	if innerSumVar == "" || groupVar != propVar {
		return Detection{}, false
	}
	// Outer projection: ?p, COUNT(?p) AS ?count, SUM(?sp) AS ?sum.
	det := Detection{Class: class, Dir: dir, PropVar: propVar}
	for _, it := range q.Items {
		switch e := it.Expr.(type) {
		case nil:
			if it.Var != propVar {
				return Detection{}, false
			}
		case *sparql.AggExpr:
			arg, isVar := e.Arg.(*sparql.VarExpr)
			switch e.Op {
			case "COUNT":
				if e.Star {
					// COUNT(*) over the grouped rows also counts subjects.
					if det.CountVar != "" {
						return Detection{}, false
					}
					det.CountVar = it.Var
					continue
				}
				if !isVar || arg.Name != propVar && arg.Name != typeVar || det.CountVar != "" {
					return Detection{}, false
				}
				det.CountVar = it.Var
			case "SUM":
				if !isVar || arg.Name != innerSumVar || det.SumVar != "" {
					return Detection{}, false
				}
				det.SumVar = it.Var
			default:
				return Detection{}, false
			}
		default:
			return Detection{}, false
		}
	}
	if det.CountVar == "" {
		return Detection{}, false
	}
	return det, true
}

func detectSingleLevel(q *sparql.Query, groupVar string) (Detection, bool) {
	typeVar, class, propVar, dir, ok := classifyPatterns(q.Where.Triples)
	if !ok || groupVar != propVar {
		return Detection{}, false
	}
	det := Detection{Class: class, Dir: dir, PropVar: propVar}
	for _, it := range q.Items {
		switch e := it.Expr.(type) {
		case nil:
			if it.Var != propVar {
				return Detection{}, false
			}
		case *sparql.AggExpr:
			arg, isVar := e.Arg.(*sparql.VarExpr)
			switch {
			case e.Op == "COUNT" && e.Distinct && isVar && arg.Name == typeVar && det.CountVar == "":
				det.CountVar = it.Var
			case e.Op == "COUNT" && e.Star && det.SumVar == "":
				det.SumVar = it.Var
			default:
				return Detection{}, false
			}
		default:
			return Detection{}, false
		}
	}
	if det.CountVar == "" {
		return Detection{}, false
	}
	return det, true
}

// classifyPatterns inspects the two triple patterns of an expansion query
// and extracts (typed variable, class constant, property variable,
// direction).
func classifyPatterns(tps []sparql.TriplePattern) (typeVar string, class rdf.Term, propVar string, dir Direction, ok bool) {
	if len(tps) != 2 {
		return "", rdf.Term{}, "", 0, false
	}
	var typeTP, propTP sparql.TriplePattern
	found := false
	for i, tp := range tps {
		if !tp.P.IsVar && tp.P.Term.Value == rdf.RDFType && tp.S.IsVar && !tp.O.IsVar {
			typeTP = tp
			propTP = tps[1-i]
			found = true
			break
		}
	}
	if !found {
		return "", rdf.Term{}, "", 0, false
	}
	typeVar = typeTP.S.Name
	class = typeTP.O.Term
	if !propTP.P.IsVar || !propTP.S.IsVar || !propTP.O.IsVar {
		return "", rdf.Term{}, "", 0, false
	}
	propVar = propTP.P.Name
	switch {
	case propTP.S.Name == typeVar && propTP.O.Name != typeVar && propTP.O.Name != propVar:
		return typeVar, class, propVar, Outgoing, true
	case propTP.O.Name == typeVar && propTP.S.Name != typeVar && propTP.S.Name != propVar:
		return typeVar, class, propVar, Incoming, true
	}
	return "", rdf.Term{}, "", 0, false
}

// PropertyStats computes (or serves from the memo) the per-property
// aggregates for the direct instances of class in the given direction,
// sorted by descending subject count then property label. The aggregation
// runs over one immutable store snapshot — lock-free reads — and the memo
// stores it only if it is still at the generation that snapshot is at.
func (d *Decomposer) PropertyStats(class rdf.ID, dir Direction) []PropStat {
	return d.entry(class, dir).stats
}

// entry returns the memo entry of (class, dir), computing it on a miss.
func (d *Decomposer) entry(class rdf.ID, dir Direction) *memoEntry {
	key := memoKey{class: class, dir: dir}
	snap, e := d.begin(key)
	if e != nil {
		return e
	}
	return d.finish(key, snap.Generation(), computeEntry(snap, class, dir))
}

// begin binds the store's snapshot under d.mu and returns the memo's
// entry for key, or, on a miss, the snapshot for a kernel pass. Writes
// through ApplyDelta publish under d.mu, so the snapshot is at the memo's
// generation or — after a write that bypassed ApplyDelta — newer, which
// drops the memo.
func (d *Decomposer) begin(key memoKey) (*store.Snapshot, *memoEntry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := d.st.Snapshot()
	if gen := snap.Generation(); gen > d.generation {
		d.dropLocked(gen, &d.stats.DropsNewerRead)
	}
	return snap, d.memo[key]
}

// finish ends a kernel pass begin started at generation gen with its
// entry e, and returns the entry to answer with. The memo stores e only
// if no other pass stored an entry for key first and no write overtook
// the pass; an overtaken pass answers its own read, at gen, which lies
// between its request's arrival and its response.
func (d *Decomposer) finish(key memoKey, gen uint64, e *memoEntry) *memoEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cached, ok := d.memo[key]; ok {
		d.stats.PassesDiscarded++
		return cached
	}
	if gen < d.generation {
		d.stats.PassesDiscarded++
		return e
	}
	d.stats.PassesStored++
	d.memo[key] = e
	return e
}

// dropLocked empties the memo, moving it to generation gen, and counts a
// drop of a memo holding an entry in cause.
func (d *Decomposer) dropLocked(gen uint64, cause *int) {
	if len(d.memo) > 0 {
		*cause++
	}
	d.memo, d.generation = make(map[memoKey]*memoEntry), gen
	clear(d.shown)
}

// resultVars are the variables of the answer to a detected query.
func (det Detection) resultVars() []string {
	if det.SumVar == "" {
		return []string{det.PropVar, det.CountVar}
	}
	return []string{det.PropVar, det.CountVar, det.SumVar}
}

// computeEntry is the counting pass of the store's property-distribution
// kernel over the class's instances, labelled and in rank order.
func computeEntry(snap *store.Snapshot, class rdf.ID, dir Direction) *memoEntry {
	groups := snap.PropertyCounts(snap.SubjectsOfType(class), dir == Incoming)
	e := &memoEntry{stats: make([]PropStat, len(groups)), labels: make([]string, len(groups))}
	for i, g := range groups {
		e.stats[i] = PropStat{Property: g.Property, Subjects: g.Count, Triples: g.Triples}
		e.labels[i] = snap.Label(g.Property)
	}
	sort.Sort((*byRank)(e))
	return e
}

// byRank sorts an entry's stats, and their labels with them, by
// descending subject count, then property label, then property ID.
type byRank memoEntry

func (e *byRank) Len() int { return len(e.stats) }

func (e *byRank) Less(i, j int) bool {
	a, b := e.stats[i], e.stats[j]
	switch {
	case a.Subjects != b.Subjects:
		return a.Subjects > b.Subjects
	case e.labels[i] != e.labels[j]:
		return e.labels[i] < e.labels[j]
	}
	return a.Property < b.Property
}

func (e *byRank) Swap(i, j int) {
	e.stats[i], e.stats[j] = e.stats[j], e.stats[i]
	e.labels[i], e.labels[j] = e.labels[j], e.labels[i]
}

// ApplyDelta is the memo's store.Carry: it carries the memo across the
// write res that the store is about to publish as next, then publishes
// it under the memo's lock, so no read binds res.To before the memo is
// there. When the memo is at res.From, every entry is folded forward from
// the write's net triples; otherwise — the memo missed a write, or the
// write touches rdf:type or rdfs:subClassOf and so changes class
// membership — the memo is dropped and the kernel rebuilds each entry on
// its next read.
func (d *Decomposer) ApplyDelta(res store.ApplyResult, next *store.Snapshot, publish func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer publish()
	if d.generation != res.From {
		d.dropLocked(res.To, &d.stats.DropsMissedWrite)
		return
	}
	memo := foldMemo(next, d.memo, res)
	if memo == nil {
		d.dropLocked(res.To, &d.stats.DropsUnfoldable)
		return
	}
	d.memo, d.generation = memo, res.To
}

// Stats returns the memo's drop and kernel-pass counters.
func (d *Decomposer) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// touch is one (node, property) pair a write changed, seen from the node:
// Outgoing for a triple's subject, Incoming for its object.
type touch struct {
	node, prop rdf.ID
	dir        Direction
}

// foldMemo returns memo folded forward over res onto snap (the snapshot
// at res.To), or nil when the write cannot be folded.
func foldMemo(snap *store.Snapshot, memo map[memoKey]*memoEntry, res store.ApplyResult) map[memoKey]*memoEntry {
	// Net triple-count change per touched (node, property, direction),
	// and the nodes whose rdfs:label changed.
	net := make(map[touch]int)
	relabeled := make(map[rdf.ID]bool)
	add := func(e rdf.EncodedTriple, n int) bool {
		switch e.P {
		case snap.TypeID(), snap.SubClassOfID():
			return false
		case snap.LabelID():
			relabeled[e.S] = true
		}
		net[touch{e.S, e.P, Outgoing}] += n
		net[touch{e.O, e.P, Incoming}] += n
		return true
	}
	for _, e := range res.NetInserts {
		if !add(e, 1) {
			return nil
		}
	}
	for _, e := range res.NetDeletes {
		if !add(e, -1) {
			return nil
		}
	}
	next := make(map[memoKey]*memoEntry, len(memo))
	for key, e := range memo {
		next[key] = foldEntry(snap, key, e, net, relabeled)
	}
	return next
}

// foldEntry returns e with net applied, or e itself when the write does
// not reach it. For each touched node that is a direct instance of the
// entry's class, a property's triple count moves by the node's net change
// and its subject count by whether the node now has the property against
// whether it had it before (now − net triples), which stays exact when
// one write touches the same (node, property) several times. Labels are
// looked up only for a property new to the entry or one the write
// relabeled; the others keep theirs.
func foldEntry(snap *store.Snapshot, key memoKey, e *memoEntry, net map[touch]int, relabeled map[rdf.ID]bool) *memoEntry {
	var (
		next   *memoEntry // e's copy, made on the first change
		resort bool
	)
	edit := func() {
		if next == nil {
			next = &memoEntry{stats: slices.Clone(e.stats), labels: slices.Clone(e.labels)}
		}
	}
	for t, n := range net {
		if t.dir != key.dir || !snap.ContainsID(t.node, snap.TypeID(), key.class) {
			continue
		}
		edit()
		now := snap.CardMatch(t.node, t.prop, rdf.NoID)
		if t.dir == Incoming {
			now = snap.CardMatch(rdf.NoID, t.prop, t.node)
		}
		i := slices.IndexFunc(next.stats, func(s PropStat) bool { return s.Property == t.prop })
		if i < 0 {
			i, resort = len(next.stats), true
			//lint:ignore maporder a new stat's position is erased by the re-sort below
			next.stats = append(next.stats, PropStat{Property: t.prop})
			next.labels = append(next.labels, snap.Label(t.prop))
		}
		next.stats[i].Triples += n
		if dSubj := b2i(now > 0) - b2i(now-n > 0); dSubj != 0 {
			next.stats[i].Subjects += dSubj
			resort = true
		}
	}
	// A label change moves a property among those of equal subject count.
	// A property new to the entry sits past len(e.stats), labelled at snap.
	if len(relabeled) > 0 {
		for i, s := range e.stats {
			if relabeled[s.Property] {
				edit()
				next.labels[i], resort = snap.Label(s.Property), true
			}
		}
	}
	if next == nil {
		return e
	}
	if resort {
		next.dropUnused()
		sort.Sort((*byRank)(next))
	}
	return next
}

// dropUnused removes the stats, and their labels, of properties no
// instance has any more.
func (e *memoEntry) dropUnused() {
	n := 0
	for i, s := range e.stats {
		if s.Subjects != 0 {
			e.stats[n], e.labels[n] = s, e.labels[i]
			n++
		}
	}
	e.stats, e.labels = e.stats[:n], e.labels[:n]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TryExecute answers the query from indexes when it is a recognized
// property expansion. ok=false means the caller must route the query to
// the generic engine.
func (d *Decomposer) TryExecute(q *sparql.Query) (*sparql.Result, bool) {
	r, ok := d.TryAnswer(q, "")
	if !ok {
		return nil, false
	}
	return r.Result(), true
}

// TryAnswer is TryExecute with the answer as a Rendering. For a query
// with no ORDER BY, LIMIT or OFFSET the rendering is kept for Lookup
// under text (the query's normalized text; "" keeps none) while the memo
// holds the entry it renders; the engine's solution modifiers order and
// slice the rows of any other, whose rendering is its own.
func (d *Decomposer) TryAnswer(q *sparql.Query, text string) (*Rendering, bool) {
	det, ok := Detect(q)
	if !ok {
		return nil, false
	}
	vars := det.resultVars()
	classID, found := d.st.Dict().Lookup(det.Class)
	if !found {
		return &Rendering{tab: sparql.NewTable(vars, nil)}, true
	}
	r := d.render(memoKey{class: classID, dir: det.Dir}, vars, d.entry(classID, det.Dir))
	if len(q.OrderBy) > 0 || q.Limit >= 0 || q.Offset > 0 {
		res := r.Result()
		return &Rendering{tab: sparql.TableOf(&sparql.Result{Vars: vars, Rows: sparql.OrderAndSlice(res.Rows, q)})}, true
	}
	if text != "" {
		d.keep(text, r)
	}
	return r, true
}

// render builds e's answer under vars: per stat the property's term, its
// subject count and, when vars has a third name, its triple count.
func (d *Decomposer) render(key memoKey, vars []string, e *memoEntry) *Rendering {
	dict := d.st.Dict()
	cells := make([]rdf.Term, 0, len(e.stats)*len(vars))
	for _, s := range e.stats {
		cells = append(cells, dict.Term(s.Property), integer(s.Subjects))
		if len(vars) == 3 {
			cells = append(cells, integer(s.Triples))
		}
	}
	return &Rendering{tab: sparql.NewTable(vars, cells), key: key, vars: vars, entry: e}
}

func integer(n int) rdf.Term { return rdf.NewTypedLiteral(strconv.Itoa(n), rdf.XSDInteger) }

// keep makes r text's rendering if the memo still holds the entry r
// renders: not a discarded pass's entry, nor one replaced since.
func (d *Decomposer) keep(text string, r *Rendering) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.memo[r.key] != r.entry {
		return
	}
	if _, ok := d.shown[text]; !ok && len(d.shown) >= maxShown {
		clear(d.shown)
	}
	d.shown[text] = r
}

// Lookup returns the Rendering of the memo's entry for a normalized query
// text rendered before, if the memo is at generation gen or later: the
// memo only holds generations the store has published, so for a request
// bound to gen the rendering is the answer at a generation between its
// arrival and its response. When a write has folded the entry since the
// text was rendered, the text is rendered again from the memo's entry,
// with no parse and outside the memo's lock, and kept if the memo still
// holds that entry. nil means: parse the text and ask TryAnswer.
func (d *Decomposer) Lookup(text string, gen uint64) *Rendering {
	d.mu.Lock()
	r := d.shown[text]
	if r == nil || gen > d.generation {
		d.mu.Unlock()
		return nil
	}
	e := d.memo[r.key]
	d.mu.Unlock()
	if e == r.entry {
		return r
	}
	r = d.render(r.key, r.vars, e)
	d.keep(text, r)
	return r
}

// Warm precomputes the level-zero aggregates for the given class in both
// directions — what the eLinda endpoint does for its mirrored knowledge
// bases so the very first exploration pane is fast.
func (d *Decomposer) Warm(class rdf.ID) {
	d.PropertyStats(class, Outgoing)
	d.PropertyStats(class, Incoming)
}
