package sparql

// This file implements the engine's default execution path: an ID-space
// streaming executor. Queries compile to a slot table (variable name →
// column index) and evaluate as flat []rdf.ID binding rows flowing through
// a push-based operator pipeline (pattern scan → index-backed join →
// filter → distinct/group → order → slice), and leave as a Table of ID
// rows (table.go). Terms decode only where an expression, ORDER BY key or
// aggregate needs a value, in a response encoder, or in Table.Result, the
// one place that builds a Solution map per row — so the hot join loops
// never allocate per-row maps and compare bindings by integer equality.
//
// The map-based evaluator this replaced lives on in oracle_test.go as the
// differential-testing oracle: both must produce identical row sets (see
// differential_test.go).

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// slotTable assigns each variable name a dense column index in ID rows.
type slotTable struct {
	names []string
	index map[string]int
}

func newSlotTable() *slotTable { return &slotTable{index: make(map[string]int)} }

// slot returns the column for name, allocating one on first use.
func (t *slotTable) slot(name string) int {
	if i, ok := t.index[name]; ok {
		return i
	}
	i := len(t.names)
	t.names = append(t.names, name)
	t.index[name] = i
	return i
}

// lookup returns the column for name without allocating.
func (t *slotTable) lookup(name string) (int, bool) {
	i, ok := t.index[name]
	return i, ok
}

func (t *slotTable) width() int { return len(t.names) }

// overflowBase is the first ID of the query-local overflow range. Store
// dictionary IDs are dense from 1; values materialized during a query
// (VALUES literals absent from the store, subselect expression outputs)
// get IDs from 1<<31 up so the two ranges can never collide.
const overflowBase rdf.ID = 1 << 31

// execEnv is the per-execution encode/decode environment: the store
// snapshot the whole query reads from, its dictionary, and a query-local
// overflow table for terms that are not in the store. Binding one
// snapshot per execution gives every operator — including deeply nested
// subselects — a consistent view of the knowledge base and keeps the hot
// join loops entirely lock-free. Within one execution, equal terms always
// map to equal IDs, so ID equality is term equality everywhere in the
// pipeline.
type execEnv struct {
	snap    *store.Snapshot
	dict    *rdf.Dict
	over    []rdf.Term
	overIdx map[rdf.Term]rdf.ID
}

func newExecEnv(snap *store.Snapshot) *execEnv {
	return &execEnv{snap: snap, dict: snap.Dict()}
}

// encode returns the ID for t, interning it in the overflow table when the
// store dictionary does not know it.
func (env *execEnv) encode(t rdf.Term) rdf.ID {
	if id, ok := env.dict.Lookup(t); ok {
		return id
	}
	if id, ok := env.overIdx[t]; ok {
		return id
	}
	if env.overIdx == nil {
		env.overIdx = make(map[rdf.Term]rdf.ID)
	}
	id := overflowBase + rdf.ID(len(env.over))
	env.over = append(env.over, t)
	env.overIdx[t] = id
	return id
}

// decode maps an ID back to its term. id must not be NoID.
func (env *execEnv) decode(id rdf.ID) rdf.Term {
	if id >= overflowBase {
		return env.over[id-overflowBase]
	}
	return env.dict.Term(id)
}

// table is the answer proj, columns named by vars, decoded through env:
// the dictionary's terms as of now (which hold every ID of proj) and the
// overflow terms.
func (env *execEnv) table(proj *idRows, vars []string) *Table {
	return &Table{Vars: vars, cols: vars, n: proj.n, ids: proj.data, terms: env.dict.Terms(), over: env.over}
}

// idRows is a compact row set: n rows of width w stored back to back in
// one []rdf.ID block. rdf.NoID marks an unbound variable.
type idRows struct {
	w    int
	n    int
	data []rdf.ID
}

func newIDRows(w int) *idRows { return &idRows{w: w} }

func (r *idRows) row(i int) []rdf.ID { return r.data[i*r.w : (i+1)*r.w] }

// push appends one row, doubling the block when it is full: append's
// ~1.25x step for large slices would copy the rows several times over.
func (r *idRows) push(row []rdf.ID) {
	if len(r.data)+len(row) > cap(r.data) {
		r.reserve(max(r.n, 16))
	}
	r.data = append(r.data, row...)
	r.n++
}

// reserve makes room for k more rows without a further reallocation.
func (r *idRows) reserve(k int) {
	need := len(r.data) + k*r.w
	if need <= cap(r.data) {
		return
	}
	data := make([]rdf.ID, len(r.data), need)
	copy(data, r.data)
	r.data = data
}

// allUnbound reports whether every slot of row is NoID.
func allUnbound(row []rdf.ID) bool {
	for _, id := range row {
		if id != rdf.NoID {
			return false
		}
	}
	return true
}

// idCompatible mirrors compatible: two rows agree when no slot is bound to
// different IDs in both.
func idCompatible(a, b []rdf.ID) bool {
	for i, v := range a {
		if v != rdf.NoID && b[i] != rdf.NoID && b[i] != v {
			return false
		}
	}
	return true
}

// mergeInto writes the merge of l and r (r's bindings win) into dst.
func mergeInto(dst, l, r []rdf.ID) {
	copy(dst, l)
	for i, v := range r {
		if v != rdf.NoID {
			dst[i] = v
		}
	}
}

// groupSlots collects every variable a group graph pattern can bind:
// triple patterns, subselect projections, VALUES variables, and the same
// recursively for OPTIONAL groups and UNION branches. Filters cannot bind
// variables, so their names need no slots.
func groupSlots(g *GroupPattern) *slotTable {
	t := newSlotTable()
	var walk func(g *GroupPattern)
	walk = func(g *GroupPattern) {
		for _, tp := range g.Triples {
			for _, tv := range []TermOrVar{tp.S, tp.P, tp.O} {
				if tv.IsVar {
					t.slot(tv.Name)
				}
			}
		}
		for _, sub := range g.SubSelects {
			if sub.Star {
				// A star subselect projects every variable its body binds.
				walk(sub.Where)
				continue
			}
			for _, it := range sub.Items {
				t.slot(it.Var)
			}
		}
		for _, vb := range g.Values {
			for _, v := range vb.Vars {
				t.slot(v)
			}
		}
		for _, opt := range g.Optionals {
			walk(opt)
		}
		for _, branches := range g.Unions {
			for _, br := range branches {
				walk(br)
			}
		}
	}
	walk(g)
	return t
}

// Execute runs a parsed query and returns its answer with one Solution
// map per row: ExecuteTable's answer converted by Table.Result.
func (e *Engine) Execute(ctx context.Context, q *Query) (*Result, error) {
	tab, err := e.ExecuteTable(ctx, q)
	if err != nil {
		return nil, err
	}
	return tab.Result(), nil
}

// ExecuteTable runs a parsed query and returns its answer as ID rows. It
// binds one immutable store snapshot for the whole execution: consistent
// reads, and zero lock traffic inside the join loops.
func (e *Engine) ExecuteTable(ctx context.Context, q *Query) (*Table, error) {
	env := newExecEnv(e.st.Snapshot())
	rows, slots, err := e.evalGroupIDs(ctx, q.Where, env)
	if err != nil {
		return nil, err
	}
	// The eval loops poll the context only every cancelCheckInterval
	// visits: a deadline that fired during a small evaluation surfaces
	// here, before any caller encodes the result.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sparql: %w", err)
	}
	if q.Ask {
		return &Table{Ask: true, AskTrue: rows.n > 0}, nil
	}
	proj, vars, err := e.finishIDs(ctx, q, rows, slots, env)
	if err != nil {
		return nil, err
	}
	return env.table(proj, vars), nil
}

// evalGroupIDs evaluates a group graph pattern to an ID row set over the
// group's slot table. The operator order mirrors the oracle's evalGroup
// (oracle_test.go) exactly so the two stay differentially testable.
func (e *Engine) evalGroupIDs(ctx context.Context, g *GroupPattern, env *execEnv) (*idRows, *slotTable, error) {
	slots := groupSlots(g)
	w := slots.width()
	rows := newIDRows(w)
	rows.push(make([]rdf.ID, w))

	// Subselects join first.
	for _, sub := range g.SubSelects {
		right, err := e.subselectIDs(ctx, sub, env, slots)
		if err != nil {
			return nil, nil, err
		}
		rows, err = idJoin(ctx, rows, right, false)
		if err != nil {
			return nil, nil, err
		}
	}

	// Triple patterns: a single streaming pass pushes each binding row
	// through the whole planned pattern chain depth first, so the joined
	// intermediate result is never materialized as maps.
	out := newIDRows(w)
	if err := e.runBGP(ctx, rows, g.Triples, slots, out, env, leapfrogEligible(g)); err != nil {
		return nil, nil, err
	}
	rows = out

	// VALUES blocks: joined like any other row set. UNDEF cells stay NoID,
	// so a VALUES variable with an UNDEF row is never a join key.
	for _, vb := range g.Values {
		inline := newIDRows(w)
		for _, vrow := range vb.Rows {
			idrow := make([]rdf.ID, w)
			for i, v := range vb.Vars {
				if i < len(vrow) && !vrow[i].IsZero() {
					idrow[slots.index[v]] = env.encode(vrow[i])
				}
			}
			inline.push(idrow)
		}
		var err error
		rows, err = idJoin(ctx, rows, inline, false)
		if err != nil {
			return nil, nil, err
		}
	}

	// UNION branches.
	for _, branches := range g.Unions {
		unionRows := newIDRows(w)
		for _, br := range branches {
			brRows, brSlots, err := e.evalGroupIDs(ctx, br, env)
			if err != nil {
				return nil, nil, err
			}
			remapRows(brRows, brSlots.names, slots, unionRows)
		}
		var err error
		rows, err = idJoin(ctx, rows, unionRows, false)
		if err != nil {
			return nil, nil, err
		}
	}

	// OPTIONAL: left joins.
	for _, opt := range g.Optionals {
		optRows, optSlots, err := e.evalGroupIDs(ctx, opt, env)
		if err != nil {
			return nil, nil, err
		}
		remapped := newIDRows(w)
		remapRows(optRows, optSlots.names, slots, remapped)
		rows, err = idJoin(ctx, rows, remapped, true)
		if err != nil {
			return nil, nil, err
		}
	}

	// FILTER constraints: ID-space fast paths (sameTerm compare, single-
	// variable memoization), falling back to a churn-free decode bridge
	// for general expressions — see idfilter.go.
	for _, f := range g.Filters {
		var err error
		rows, err = e.applyFilterIDs(ctx, f, rows, slots, env)
		if err != nil {
			return nil, nil, err
		}
	}
	return rows, slots, nil
}

// slotRef pairs a variable name with its column.
type slotRef struct {
	name string
	slot int
}

// filterRefs resolves the variables an expression references to slots.
// Variables without a slot can never be bound and are omitted (exactly the
// oracle's behavior, where they are simply absent from the solution map).
func filterRefs(f Expr, slots *slotTable) []slotRef {
	var refs []slotRef
	for _, name := range exprVars(f) {
		if i, ok := slots.lookup(name); ok {
			refs = append(refs, slotRef{name: name, slot: i})
		}
	}
	return refs
}

// exprVars returns the distinct variable names referenced by e, in first
// appearance order.
func exprVars(e Expr) []string {
	seen := map[string]struct{}{}
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *VarExpr:
			if _, dup := seen[x.Name]; !dup {
				seen[x.Name] = struct{}{}
				out = append(out, x.Name)
			}
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *NotExpr:
			walk(x.X)
		case *FuncExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *AggExpr:
			if x.Arg != nil {
				walk(x.Arg)
			}
		}
	}
	walk(e)
	return out
}

// remapRows appends src's rows, whose columns names names, to dst over
// dstSlots; a name without a dst slot is dropped. Columns sharing a name
// hold the same value (lastBoundWins).
func remapRows(src *idRows, names []string, dstSlots *slotTable, dst *idRows) {
	mapping := make([]int, len(names))
	for j, name := range names {
		mapping[j] = -1
		if i, ok := dstSlots.lookup(name); ok {
			mapping[j] = i
		}
	}
	dst.reserve(src.n)
	row := make([]rdf.ID, dst.w)
	for i := 0; i < src.n; i++ {
		for k := range row {
			row[k] = rdf.NoID
		}
		for j, v := range src.row(i) {
			if mapping[j] >= 0 {
				row[mapping[j]] = v
			}
		}
		dst.push(row)
	}
}

// compiledPattern is a triple pattern resolved against the slot table and
// dictionary once, instead of per row: constants become IDs up front.
type compiledPattern struct {
	slot [3]int    // slot index per position, -1 for constants
	id   [3]rdf.ID // constant ID per position (when slot < 0)
	dead bool      // a constant is not in the dictionary: matches nothing
}

func compilePattern(tp TriplePattern, slots *slotTable, d *rdf.Dict) compiledPattern {
	var cp compiledPattern
	for i, tv := range []TermOrVar{tp.S, tp.P, tp.O} {
		if tv.IsVar {
			cp.slot[i] = slots.index[tv.Name]
			continue
		}
		cp.slot[i] = -1
		id, ok := d.Lookup(tv.Term)
		if !ok {
			cp.dead = true
		}
		cp.id[i] = id
	}
	return cp
}

// cancelCheckInterval is how many pattern-match visits pass between
// context checks inside the join loops, so even a single huge scan aborts
// promptly on cancellation.
const cancelCheckInterval = 2048

// bgpExec is the depth-first join-chain state for one executor: the
// bound snapshot, the compiled join steps (single patterns or leapfrog
// groups — see leapfrog.go), one reusable row, and the output sink.
type bgpExec struct {
	ctx    context.Context
	snap   *store.Snapshot
	steps  []joinStep
	cur    []rdf.ID
	out    *idRows
	visits int
}

// step extends cur with every match of steps[depth] and recurses.
// Snapshot reads hold no lock, so the chain recurses directly inside the
// Match callback — no per-depth match buffering, no lock traffic.
func (r *bgpExec) step(depth int) error {
	if depth == len(r.steps) {
		r.out.push(r.cur)
		return nil
	}
	r.visits++
	if r.visits%cancelCheckInterval == 0 {
		if err := r.ctx.Err(); err != nil {
			return fmt.Errorf("sparql: %w", err)
		}
	}
	st := &r.steps[depth]
	if st.slot >= 0 {
		return r.stepLeapfrog(st, depth)
	}
	if st.semi != nil {
		in, err := st.semi.contains(r.ctx, r.snap, r.cur[st.semi.slot])
		if err != nil || !in {
			return err
		}
		return r.step(depth + 1)
	}
	cp := st.pats[0]
	if cp.dead {
		return nil
	}
	var want [3]rdf.ID // NoID = free position
	free := false
	for i := 0; i < 3; i++ {
		if cp.slot[i] < 0 {
			want[i] = cp.id[i]
		} else if v := r.cur[cp.slot[i]]; v != rdf.NoID {
			want[i] = v
		} else {
			free = true
		}
	}

	if !free {
		// Fully bound: an O(log n) membership probe instead of a scan.
		if r.snap.ContainsID(want[0], want[1], want[2]) {
			return r.step(depth + 1)
		}
		return nil
	}

	var stepErr error
	r.snap.Match(want[0], want[1], want[2], func(tr rdf.EncodedTriple) bool {
		r.visits++
		if r.visits%cancelCheckInterval == 0 && r.ctx.Err() != nil {
			stepErr = fmt.Errorf("sparql: %w", r.ctx.Err())
			return false
		}
		got := [3]rdf.ID{tr.S, tr.P, tr.O}
		var touched [3]int
		nt := 0
		ok := true
		for i := 0; i < 3; i++ {
			s := cp.slot[i]
			if s < 0 {
				continue
			}
			if r.cur[s] == rdf.NoID {
				// Binds the position; repeated variables within the
				// pattern hit the bound branch on their second
				// occurrence and must agree in ID space.
				r.cur[s] = got[i]
				touched[nt] = s
				nt++
			} else if r.cur[s] != got[i] {
				ok = false
				break
			}
		}
		if ok {
			stepErr = r.step(depth + 1)
		}
		for i := 0; i < nt; i++ {
			r.cur[touched[i]] = rdf.NoID
		}
		return stepErr == nil
	})
	return stepErr
}

// run streams every input row through the pattern chain.
func (r *bgpExec) run(in *idRows) error {
	for i := 0; i < in.n; i++ {
		// step polls per visited triple, but a fully bound chain probes
		// ContainsID without visiting any — poll per input row too.
		if i%cancelCheckInterval == cancelCheckInterval-1 {
			if err := r.ctx.Err(); err != nil {
				return fmt.Errorf("sparql: %w", err)
			}
		}
		copy(r.cur, in.row(i))
		if err := r.step(0); err != nil {
			return err
		}
	}
	return nil
}

// leapfrogEligible reports whether g's BGP compiles with leapfrog groups:
// exactly when no subselect joins before it, so the BGP's seed is the one
// all-unbound row the compile-time bound-slot simulation starts from.
// runBGP and Explain both decide by it.
func leapfrogEligible(g *GroupPattern) bool { return len(g.SubSelects) == 0 }

// runBGP plans the BGP tps, then streams every input row through the
// pattern chain depth first and appends the fully joined rows to out.
// With leapfrog, patterns that co-constrain one free variable fuse into
// an intersection group (see leapfrog.go).
func (e *Engine) runBGP(ctx context.Context, in *idRows, tps []TriplePattern, slots *slotTable, out *idRows, env *execEnv, leapfrog bool) error {
	if len(tps) == 0 {
		out.data = append(out.data, in.data...)
		out.n += in.n
		return nil
	}
	plan, _ := planBGP(env.snap, tps)
	pats := make([]compiledPattern, len(tps))
	//lint:ignore ctxloop bounded by the query's pattern count, not by data size
	for i, tp := range planOrder(tps, plan) {
		pats[i] = compilePattern(tp, slots, env.dict)
	}
	steps := compileSteps(pats, plan, in.w, leapfrog)
	run := &bgpExec{ctx: ctx, snap: env.snap, steps: steps, out: out, cur: make([]rdf.ID, in.w)}
	return run.run(in)
}

// idJoin joins two ID row sets: every compatible (left, right) pair,
// merged, left-major with each left row's partners in right-row order —
// the nested loop's order. With optional it is OPTIONAL's left join: a
// left row without a compatible partner is kept unchanged.
//
// Right rows are chained into buckets on up to two key columns: slots
// bound in every row of both sides. Rows that differ on such a slot are
// incompatible, so all of a left row's partners sit in its bucket. A slot
// bound in only some rows (a UNION branch, an OPTIONAL hole, a VALUES
// UNDEF) is never a key; idCompatible still decides every candidate.
// Without a key column every right row is a candidate.
func idJoin(ctx context.Context, left, right *idRows, optional bool) (*idRows, error) {
	if !optional && left.n == 1 && allUnbound(left.row(0)) {
		return right, nil
	}
	out := newIDRows(left.w)
	key := joinKeyColumns(left, right)
	visits := 0
	// head[k] is the first right row with key k and next[j] the row after
	// j in its bucket, -1 ending the chain. Built back to front, so every
	// chain runs in right-row order.
	var head map[uint64]int32
	var next []int32
	if len(key) > 0 {
		head = make(map[uint64]int32, right.n)
		next = make([]int32, right.n)
		for j := right.n - 1; j >= 0; j-- {
			if visits++; visits%cancelCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("sparql: %w", err)
				}
			}
			k := packKey(right.row(j), key)
			next[j] = -1
			if h, ok := head[k]; ok {
				next[j] = h
			}
			head[k] = int32(j)
		}
	}
	scratch := make([]rdf.ID, left.w)
	for i := 0; i < left.n; i++ {
		l := left.row(i)
		matched := false
		j := 0
		if head != nil {
			j = -1
			if h, ok := head[packKey(l, key)]; ok {
				j = int(h)
			}
		}
		for j >= 0 && j < right.n {
			if visits++; visits%cancelCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("sparql: %w", err)
				}
			}
			if r := right.row(j); idCompatible(l, r) {
				mergeInto(scratch, l, r)
				out.push(scratch)
				matched = true
			}
			if head != nil {
				j = int(next[j])
			} else {
				j++
			}
		}
		if optional && !matched {
			out.push(l)
		}
	}
	return out, nil
}

// joinKeyColumns returns the first two slots bound in every row of both
// sides: the columns idJoin may bucket on.
func joinKeyColumns(left, right *idRows) []int {
	always := make([]bool, left.w)
	for c := range always {
		always[c] = true
	}
	for _, side := range []*idRows{left, right} {
		for i := 0; i < side.n; i++ {
			for c, id := range side.row(i) {
				if id == rdf.NoID {
					always[c] = false
				}
			}
		}
	}
	var key []int
	for c, ok := range always {
		if ok && len(key) < 2 {
			key = append(key, c)
		}
	}
	return key
}

// packKey packs a row's one or two key columns into a uint64.
func packKey(row []rdf.ID, key []int) uint64 {
	k := uint64(row[key[0]])
	if len(key) == 2 {
		k |= uint64(row[key[1]]) << 32
	}
	return k
}

// idKeyer renders the IDs at the chosen columns of a row into a hashable
// key. It reuses one byte buffer across calls; the string conversion is
// the only per-row allocation in the distinct/group hash paths, and
// at 4 bytes per column it is far cheaper than the Term.String() keys the
// oracle renders.
type idKeyer struct {
	buf []byte
}

func newIDKeyer(cols int) *idKeyer { return &idKeyer{buf: make([]byte, 4*cols)} }

func (k *idKeyer) key(row []rdf.ID, cols []int) string {
	for i, c := range cols {
		binary.LittleEndian.PutUint32(k.buf[4*i:], uint32(row[c]))
	}
	return string(k.buf)
}

// keyAll renders every column of a projected row.
func (k *idKeyer) keyAll(row []rdf.ID) string {
	for i, id := range row {
		binary.LittleEndian.PutUint32(k.buf[4*i:], uint32(id))
	}
	return string(k.buf)
}

// subselectIDs evaluates a subselect and returns its rows in ID space,
// remapped onto the parent group's slot table: the sub-answer's rows go
// into the parent join as they are, without a decode.
func (e *Engine) subselectIDs(ctx context.Context, sub *Query, env *execEnv, parentSlots *slotTable) (*idRows, error) {
	subRows, subSlots, err := e.evalGroupIDs(ctx, sub.Where, env)
	if err != nil {
		return nil, err
	}
	proj, vars, err := e.finishIDs(ctx, sub, subRows, subSlots, env)
	if err != nil {
		return nil, err
	}
	out := newIDRows(parentSlots.width())
	remapRows(proj, vars, parentSlots, out)
	return out, nil
}

// finishIDs applies grouping, projection, distinct, order and slice to ID
// rows and returns the answer's rows with their column names.
func (e *Engine) finishIDs(ctx context.Context, q *Query, rows *idRows, slots *slotTable, env *execEnv) (*idRows, []string, error) {
	proj, vars, ok := e.projectStream(q, rows, slots, env)
	if !ok {
		var err error
		if proj, vars, err = e.finishGroupedGeneral(q, rows, slots, env); err != nil {
			return nil, nil, err
		}
	}
	proj, err := orderSliceIDs(ctx, proj, vars, q, env)
	return proj, vars, err
}

// projectStream computes the projected ID rows without materializing
// term-level solutions: the columns of a shared name resolved
// (lastBoundWins), then DISTINCT applied. ok=false means the query needs
// the general grouped path: HAVING constraints or aggregate expressions
// more complex than <agg>(?var).
func (e *Engine) projectStream(q *Query, rows *idRows, slots *slotTable, env *execEnv) (proj *idRows, vars []string, ok bool) {
	grouped := len(q.GroupBy) > 0 || q.HasAggregates()
	switch {
	case grouped:
		if len(q.Items) == 0 && !q.Star {
			return nil, nil, false // surfaces the projection error downstream
		}
		if !simpleAggItems(q) {
			return nil, nil, false
		}
		for _, it := range q.Items {
			vars = append(vars, it.Var)
		}
		groups := groupIDRows(rows, q.GroupBy, slots)
		proj = newIDRows(len(q.Items))
		proj.reserve(groups.len())
		prow := make([]rdf.ID, len(q.Items))
		var sc aggScratch
		for gi := 0; gi < groups.len(); gi++ {
			g := groups.group(gi)
			for j, it := range q.Items {
				prow[j] = rdf.NoID
				if it.Expr == nil {
					// Oracle semantics: the value from the group's first row.
					if s, has := slots.lookup(it.Var); has && len(g) > 0 {
						prow[j] = rows.row(int(g[0]))[s]
					}
					continue
				}
				v := applyAggIDs(it.Expr.(*AggExpr), g, rows, slots, env, &sc)
				if t, tok := valueToTerm(v); tok {
					prow[j] = env.encode(t)
				}
			}
			proj.push(prow)
		}
	case q.Star:
		boundSlots, starVars := boundColumns(rows, slots)
		vars = starVars
		proj = newIDRows(len(boundSlots))
		proj.reserve(rows.n)
		prow := make([]rdf.ID, len(boundSlots))
		for i := 0; i < rows.n; i++ {
			row := rows.row(i)
			for j, s := range boundSlots {
				prow[j] = row[s]
			}
			proj.push(prow)
		}
	default:
		// Expression values are interned through the overflow dictionary
		// so DISTINCT can still key on raw ID columns.
		for _, it := range q.Items {
			vars = append(vars, it.Var)
		}
		proj = newIDRows(len(q.Items))
		proj.reserve(rows.n)
		prow := make([]rdf.ID, len(q.Items))
		// Per-item slot-keyed scratch solutions: bindings overwrite in
		// place across rows instead of clearing and rebuilding the map.
		var exprScratch []*scratchSol
		for j, it := range q.Items {
			if it.Expr != nil {
				if exprScratch == nil {
					exprScratch = make([]*scratchSol, len(q.Items))
				}
				exprScratch[j] = newScratchSol(filterRefs(it.Expr, slots))
			}
		}
		for i := 0; i < rows.n; i++ {
			row := rows.row(i)
			for j, it := range q.Items {
				prow[j] = rdf.NoID
				if it.Expr != nil {
					if t, tok := valueToTerm(it.Expr.Eval(exprScratch[j].fill(row, env))); tok {
						prow[j] = env.encode(t)
					}
				} else if s, sok := slots.lookup(it.Var); sok {
					prow[j] = row[s]
				}
			}
			proj.push(prow)
		}
	}
	lastBoundWins(proj, vars)
	if q.Distinct && (grouped || !distinctByConstruction(q)) {
		proj = dedupIDRows(proj)
	}
	return proj, vars, true
}

// distinctByConstruction reports whether an ungrouped query's projected
// rows are distinct without a DISTINCT pass: its group is one triple
// pattern and nothing else, and the projection keeps every variable of
// that pattern under a name no other item shares. The store is a set, so
// each row is one distinct triple, and rows that keep all of a triple's
// variables stay distinct.
func distinctByConstruction(q *Query) bool {
	g := q.Where
	if len(g.Triples) != 1 || len(g.SubSelects) > 0 || len(g.Values) > 0 ||
		len(g.Unions) > 0 || len(g.Optionals) > 0 || len(g.Filters) > 0 {
		return false
	}
	if q.Star {
		return true
	}
	tp := g.Triples[0]
	for _, tv := range []TermOrVar{tp.S, tp.P, tp.O} {
		if tv.IsVar && !projectsVar(q, tv.Name) {
			return false
		}
	}
	return true
}

// projectsVar reports whether a plain projection item carries variable
// name and no other item projects that name.
func projectsVar(q *Query, name string) bool {
	plain, items := false, 0
	for _, it := range q.Items {
		if it.Var == name {
			plain = plain || it.Expr == nil
			items++
		}
	}
	return plain && items == 1
}

// simpleAggItems reports whether every projection item is a plain
// variable or an aggregate over a plain variable (or COUNT(*)), with no
// HAVING — the shapes applyAggIDs computes directly over ID rows.
func simpleAggItems(q *Query) bool {
	if len(q.Having) > 0 {
		return false
	}
	for _, it := range q.Items {
		if it.Expr == nil {
			continue
		}
		agg, ok := it.Expr.(*AggExpr)
		if !ok {
			return false
		}
		if agg.Star {
			if agg.Op != "COUNT" {
				return false
			}
			continue
		}
		if _, ok := agg.Arg.(*VarExpr); !ok {
			return false
		}
	}
	return true
}

// applyAggIDs mirrors AggExpr.Apply over a group of ID rows: bound IDs
// stand in for values (term equality is ID equality under one execEnv),
// and terms decode one at a time only where numeric or string views are
// needed — never into per-row solution maps. DISTINCT sorts instead of
// hashing: COUNT(DISTINCT) counts the runs of the sorted IDs, and the
// other aggregates keep each ID's first occurrence in row order, which
// SAMPLE, GROUP_CONCAT and float SUM depend on. sc is scratch reused
// across calls.
func applyAggIDs(agg *AggExpr, group []int32, rows *idRows, slots *slotTable, env *execEnv, sc *aggScratch) Value {
	if agg.Star && agg.Op == "COUNT" {
		return NumValue(float64(len(group)))
	}
	if cap(sc.ids) < len(group) {
		sc.ids = make([]rdf.ID, 0, len(group))
	}
	ids := sc.ids[:0]
	if slot, ok := slots.lookup(agg.Arg.(*VarExpr).Name); ok {
		for _, ri := range group {
			if id := rows.row(int(ri))[slot]; id != rdf.NoID {
				ids = append(ids, id)
			}
		}
	}
	sc.ids = ids
	if agg.Distinct && len(ids) > 1 {
		if agg.Op == "COUNT" {
			return NumValue(float64(countRuns(ids)))
		}
		ids = sc.firstOccurrences(ids)
	}
	switch agg.Op {
	case "COUNT":
		return NumValue(float64(len(ids)))
	case "SUM":
		total := 0.0
		for _, id := range ids {
			if f, ok := TermValue(env.decode(id)).AsNumber(); ok {
				total += f
			}
		}
		return NumValue(total)
	case "AVG":
		if len(ids) == 0 {
			return NumValue(0)
		}
		total := 0.0
		n := 0
		for _, id := range ids {
			if f, ok := TermValue(env.decode(id)).AsNumber(); ok {
				total += f
				n++
			}
		}
		if n == 0 {
			return Unbound
		}
		return NumValue(total / float64(n))
	case "MIN", "MAX":
		if len(ids) == 0 {
			return Unbound
		}
		best := TermValue(env.decode(ids[0]))
		for _, id := range ids[1:] {
			v := TermValue(env.decode(id))
			cmp, ok := compareValues(v, best)
			if !ok {
				continue
			}
			if agg.Op == "MIN" && cmp < 0 || agg.Op == "MAX" && cmp > 0 {
				best = v
			}
		}
		return best
	case "SAMPLE":
		if len(ids) == 0 {
			return Unbound
		}
		return TermValue(env.decode(ids[0]))
	case "GROUP_CONCAT":
		sep := agg.Separator
		if sep == "" {
			sep = " "
		}
		var b []byte
		for i, id := range ids {
			if s, ok := TermValue(env.decode(id)).AsString(); ok {
				if i > 0 {
					b = append(b, sep...)
				}
				b = append(b, s...)
			}
		}
		return StrValue(string(b))
	}
	return Unbound
}

// finishGroupedGeneral is the grouped fallback for HAVING and complex
// aggregate expressions: groups key on raw ID columns, and only the
// variables the projection and HAVING expressions reference decode into
// the per-group solutions evalWithGroup needs. Each group's output row is
// interned through env.encode.
func (e *Engine) finishGroupedGeneral(q *Query, rows *idRows, slots *slotTable, env *execEnv) (*idRows, []string, error) {
	if len(q.Items) == 0 && !q.Star {
		return nil, nil, fmt.Errorf("sparql: grouped query requires explicit projection")
	}
	var vars []string
	for _, it := range q.Items {
		vars = append(vars, it.Var)
	}
	out := newIDRows(len(vars))
	prow := make([]rdf.ID, len(vars))
	needed := neededRefs(q, slots)
	groups := groupIDRows(rows, q.GroupBy, slots)
	for gi := 0; gi < groups.len(); gi++ {
		g := groups.group(gi)
		sols := make([]Solution, len(g))
		for i, ri := range g {
			row := rows.row(int(ri))
			sol := make(Solution, len(needed))
			for _, ref := range needed {
				if id := row[ref.slot]; id != rdf.NoID {
					sol[ref.name] = env.decode(id)
				}
			}
			sols[i] = sol
		}
		keep := true
		for _, h := range q.Having {
			b, ok := evalWithGroup(h, sols).AsBool()
			if !ok || !b {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		for j, it := range q.Items {
			var v Value
			if it.Expr != nil {
				v = evalWithGroup(it.Expr, sols)
			} else {
				v = (&VarExpr{Name: it.Var}).Eval(first(sols))
			}
			prow[j] = rdf.NoID
			if t, ok := valueToTerm(v); ok {
				prow[j] = env.encode(t)
			}
		}
		out.push(prow)
	}
	lastBoundWins(out, vars)
	if q.Distinct {
		out = dedupIDRows(out)
	}
	return out, vars, nil
}

// dedupIDRows removes duplicate projected rows, keying on the raw ID
// columns: a packed uint64 for one- and two-column projections (the
// common DISTINCT shapes, no per-row allocation), a byte-packed string
// otherwise.
func dedupIDRows(proj *idRows) *idRows {
	if proj.w == 0 {
		// Every row is the empty solution.
		if proj.n > 1 {
			proj.n = 1
		}
		return proj
	}
	out := newIDRows(proj.w)
	if proj.w <= 2 {
		seen := make(map[uint64]struct{}, proj.n)
		for i := 0; i < proj.n; i++ {
			row := proj.row(i)
			key := packPair(row, proj.w)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			out.push(row)
		}
		return out
	}
	keyer := newIDKeyer(proj.w)
	seen := make(map[string]struct{}, proj.n)
	for i := 0; i < proj.n; i++ {
		row := proj.row(i)
		key := keyer.keyAll(row)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out.push(row)
	}
	return out
}

// packPair packs up to two 32-bit IDs into a uint64 map key.
func packPair(row []rdf.ID, w int) uint64 {
	if w == 0 {
		return 0
	}
	key := uint64(row[0])
	if w == 2 {
		key |= uint64(row[1]) << 32
	}
	return key
}

// boundColumns returns the slots bound in at least one row together with
// their names sorted alphabetically (SELECT * variable order).
func boundColumns(rows *idRows, slots *slotTable) ([]int, []string) {
	bound := make([]bool, slots.width())
	for i := 0; i < rows.n; i++ {
		for j, id := range rows.row(i) {
			if id != rdf.NoID {
				bound[j] = true
			}
		}
	}
	var names []string
	for j, name := range slots.names {
		if bound[j] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	cols := make([]int, len(names))
	for i, name := range names {
		cols[i] = slots.index[name]
	}
	return cols, names
}

// neededRefs collects the slot references that grouped projection and
// HAVING evaluation will read.
func neededRefs(q *Query, slots *slotTable) []slotRef {
	seen := map[string]struct{}{}
	var refs []slotRef
	add := func(name string) {
		if _, dup := seen[name]; dup {
			return
		}
		seen[name] = struct{}{}
		if i, ok := slots.lookup(name); ok {
			refs = append(refs, slotRef{name: name, slot: i})
		}
	}
	for _, it := range q.Items {
		if it.Expr != nil {
			for _, v := range exprVars(it.Expr) {
				add(v)
			}
		} else {
			add(it.Var)
		}
	}
	for _, h := range q.Having {
		for _, v := range exprVars(h) {
			add(v)
		}
	}
	return refs
}

// idGroups is a grouping of row indexes in flat form: group g holds
// rows[start[g]:start[g+1]], in ascending row order, and groups are
// numbered in first-encounter order.
type idGroups struct {
	start []int32
	rows  []int32
}

func (g idGroups) len() int { return len(g.start) - 1 }

func (g idGroups) group(i int) []int32 { return g.rows[g.start[i]:g.start[i+1]] }

// groupIDRows partitions rows by the raw IDs of the GROUP BY columns,
// preserving first-encounter order. A GROUP BY variable that can never be
// bound keys as NoID, matching the oracle's empty-string key. One pass
// assigns each row its group, a counting sort lays the groups out flat.
func groupIDRows(rows *idRows, by []string, slots *slotTable) idGroups {
	if len(by) == 0 {
		// One group — even over an empty pattern, so COUNT(*) returns 0.
		all := make([]int32, rows.n)
		for i := range all {
			all[i] = int32(i)
		}
		return idGroups{start: []int32{0, int32(rows.n)}, rows: all}
	}
	cols := make([]int, 0, len(by))
	for _, v := range by {
		if i, ok := slots.lookup(v); ok {
			cols = append(cols, i)
		}
	}
	gid := make([]int32, rows.n)
	var sizes []int32
	if len(cols) <= 2 {
		// Packed uint64 keys: no per-row allocation for the common one-
		// and two-variable GROUP BY shapes.
		idx := map[uint64]int32{}
		var pair [2]rdf.ID
		for i := 0; i < rows.n; i++ {
			row := rows.row(i)
			for j, c := range cols {
				pair[j] = row[c]
			}
			key := packPair(pair[:], len(cols))
			g, ok := idx[key]
			if !ok {
				g = int32(len(sizes))
				idx[key] = g
				sizes = append(sizes, 0)
			}
			gid[i] = g
			sizes[g]++
		}
	} else {
		keyer := newIDKeyer(len(cols))
		idx := map[string]int32{}
		for i := 0; i < rows.n; i++ {
			key := keyer.key(rows.row(i), cols)
			g, ok := idx[key]
			if !ok {
				g = int32(len(sizes))
				idx[key] = g
				sizes = append(sizes, 0)
			}
			gid[i] = g
			sizes[g]++
		}
	}
	start := make([]int32, len(sizes)+1)
	for g, n := range sizes {
		start[g+1] = start[g] + n
	}
	// sizes becomes each group's fill cursor.
	copy(sizes, start[:len(sizes)])
	flat := make([]int32, rows.n)
	for i, g := range gid {
		flat[sizes[g]] = int32(i)
		sizes[g]++
	}
	return idGroups{start: start, rows: flat}
}

// aggScratch is the per-projection scratch applyAggIDs gathers each
// group's IDs into, reused across groups and items.
type aggScratch struct {
	ids  []rdf.ID
	keys []uint64
}

// countRuns sorts ids in place and returns the number of distinct IDs:
// the number of runs of equal values.
func countRuns(ids []rdf.ID) int {
	slices.Sort(ids)
	n := 0
	prev := rdf.NoID // bound IDs are never NoID
	for _, id := range ids {
		if id != prev {
			n++
			prev = id
		}
	}
	return n
}

// firstOccurrences returns the distinct IDs of ids, each at its first
// occurrence, in order. It sorts (ID, position) keys instead of hashing
// and overwrites ids.
func (sc *aggScratch) firstOccurrences(ids []rdf.ID) []rdf.ID {
	keys := sc.keys[:0]
	for i, id := range ids {
		keys = append(keys, uint64(id)<<32|uint64(i))
	}
	slices.Sort(keys)
	// Keep the first key of each ID's run — its smallest position — with
	// the position moved to the high half, then restore row order.
	n := 0
	prev := rdf.NoID
	for _, k := range keys {
		if id := rdf.ID(k >> 32); id != prev {
			keys[n] = k<<32 | uint64(id)
			n++
			prev = id
		}
	}
	keys = keys[:n]
	slices.Sort(keys)
	out := ids[:0]
	for _, k := range keys {
		out = append(out, rdf.ID(k))
	}
	sc.keys = keys
	return out
}
