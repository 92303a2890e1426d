// Package hvs implements eLinda's Heavy Query Store (Section 4):
//
//	"eLinda detects heavy queries and saves their results in a key-value
//	store called heavy query store (HVS) on the eLinda endpoint. For each
//	query to the eLinda endpoint, the system first checks if the HVS
//	encountered it before and determined it to be heavy. If so, use the
//	result from the HVS, otherwise route it to the Virtuoso endpoint.
//	eLinda backend measures the run time of the routed queries. Queries
//	with runtime bigger than one second are considered heavy and saved in
//	the HVS. The HVS is cleared on any update to the eLinda knowledge
//	bases."
//
// As in the paper, only routed answers enter: the proxy records heavy
// backend answers (generic queries, object expansions), never the
// decomposer's property expansions, which its memo alone keeps. Beyond
// the paper, the store is production-bounded: every entry carries an
// approximate byte cost, and an optional byte budget (MaxBytes) evicts in
// LRU order, so heavy traffic cannot grow the HVS past its memory
// allowance; the bodies an entry keeps beside its answer (KeepBodyKey) count.
//
// The cache's generation only moves forward, and only to a generation the
// store has published: the proxy carries the cache across each write with
// ApplyDelta, which keeps the entries whose footprint the write does not
// touch, and publishes the write under the cache's lock. A Lookup or
// Record at a newer generation clears the cache (the paper's rule, needed
// for writes the cache never saw: a bare Store.Apply, WAL replay). A
// Lookup at an older generation — a request that arrived before a write
// the cache has already carried — is served the entry at the cache's
// generation, an answer at some generation between the request's arrival
// and its response; a Record at an older one is dropped. Neither clears
// nor rolls the cache back.
//
// Where the paper clears the HVS on any update, an entry whose footprint
// a write does touch is first offered to the caller's fold, which may
// merge the write into the cached answer instead of dropping it — dbt's
// incremental model, merged with its delta rather than rebuilt. The proxy
// folds object expansions (decomposer.FoldObject: a link write moves only
// the objects whose support crosses zero). Everything else a write
// touches is evicted: a write on rdf:type, an object expansion under
// LIMIT or OFFSET, and every shape the fold does not recognise.
package hvs

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

// DefaultThreshold is the paper's heaviness cutoff: one second.
const DefaultThreshold = time.Second

// Entry is a cached heavy-query result.
type Entry struct {
	// Result is the stored query result.
	Result *sparql.Result
	// Runtime is the execution time observed when the entry was stored.
	Runtime time.Duration
	// StoredAt is when the entry was created.
	StoredAt time.Time
	// Hits counts cache lookups served by this entry.
	Hits int
	// Bytes is the approximate memory cost of Result (see ResultBytes)
	// plus the exact length of every body kept beside it.
	Bytes int64
	// Footprint summarizes which triples the result depends on, for
	// delta-aware invalidation (ApplyDelta). nil means unknown: the entry
	// is treated as depending on everything and evicted by any delta.
	Footprint *sparql.Footprint
	// Shape is what the recorder derived from the query for ApplyDelta's
	// fold (the proxy keeps its object-expansion detection here). It is
	// opaque to the store.
	Shape any

	bodies map[string][]byte // Result encoded per content type
}

// Stats summarizes store activity.
type Stats struct {
	// Entries is the current number of cached results.
	Entries int
	// Bytes is the approximate total cost of the cached results.
	Bytes int64
	// Hits counts queries answered from the store.
	Hits int
	// Misses counts lookups that found nothing.
	Misses int
	// Stores counts results recorded as heavy.
	Stores int
	// Evictions counts entries removed to satisfy MaxBytes.
	Evictions int
	// Invalidations counts whole-store clears.
	Invalidations int
	// DeltaEvictions counts entries evicted by delta-aware invalidation
	// because their footprint overlapped a mutation.
	DeltaEvictions int
	// DeltaRetained counts entries that survived a delta-aware
	// invalidation: their footprint was disjoint from the mutation, or the
	// fold carried their answer across it.
	DeltaRetained int
	// DeltaFolded counts the retained entries whose answer the fold
	// rewrote (a subset of DeltaRetained).
	DeltaFolded int
}

// Store is a threshold-gated key-value cache of SPARQL results. It is safe
// for concurrent use.
type Store struct {
	// threshold is fixed at New, so reading it takes no lock.
	threshold time.Duration

	mu      sync.RWMutex
	entries map[string]*Entry
	// generation remembers the KB generation the cache contents belong to.
	generation uint64
	haveGen    bool

	// lru orders keys most- to least-recently used (front = hottest);
	// lruOf finds a key's element for O(1) touch on Lookup. totalBytes
	// tracks the sum of Entry.Bytes for the byte budget.
	lru        list.List
	lruOf      map[string]*list.Element
	totalBytes int64

	hits, stores, evictions, invalidations     int
	deltaEvictions, deltaRetained, deltaFolded int
	misses                                     atomic.Int64 // counted under either lock

	// MaxBytes bounds the approximate total byte cost of cached results;
	// 0 means unlimited. Exceeding it evicts least-recently-used entries
	// until the budget holds again. A single result larger than the whole
	// budget is never stored (it would evict everything and still not
	// fit), though the query is still classified heavy.
	MaxBytes int64
}

// New returns a store with the given heaviness threshold
// (DefaultThreshold when zero or negative).
func New(threshold time.Duration) *Store {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Store{
		entries:   make(map[string]*Entry),
		threshold: threshold,
		lruOf:     make(map[string]*list.Element),
	}
}

// Threshold returns the heaviness cutoff.
func (s *Store) Threshold() time.Duration { return s.threshold }

// Normalize canonicalizes query text so that trivially different spellings
// of the same query share a cache slot (whitespace collapsing).
func Normalize(query string) string {
	fields := strings.Fields(query)
	return strings.Join(fields, " ")
}

// ResultBytes approximates the in-memory cost of a result: string bytes of
// every bound term plus fixed per-row and per-binding overheads for the
// map and Term headers. It is an accounting estimate (for the byte
// budget), not an exact heap measurement.
func ResultBytes(res *sparql.Result) int64 {
	if res == nil {
		return 0
	}
	total := int64(64) // Result header + Vars slice
	for _, v := range res.Vars {
		total += int64(len(v)) + 16
	}
	for _, row := range res.Rows {
		total += solutionBytes(row)
	}
	return total
}

// solutionBytes approximates the cost of one solution row.
func solutionBytes(row sparql.Solution) int64 {
	const (
		rowOverhead     = 48 // Solution map header
		bindingOverhead = 64 // map bucket slot + Term struct
	)
	total := int64(rowOverhead)
	for v, t := range row {
		total += bindingOverhead + int64(len(v)) + int64(len(t.Value)) +
			int64(len(t.Lang)) + int64(len(t.Datatype))
	}
	return total
}

// Lookup returns a cached result for the query under the given KB
// generation. A generation newer than the cache's clears the store first
// ("The HVS is cleared on any update"); at an older one the cache's
// current entry answers and the cache is left at its generation. A hit
// refreshes the entry's recency for LRU byte-budget eviction.
func (s *Store) Lookup(query string, generation uint64) (*sparql.Result, bool) {
	res, _, ok := s.LookupKey(Normalize(query), generation, "")
	return res, ok
}

// LookupKey is Lookup by key, the query's Normalize text, that also
// returns the body kept beside the answer for contentType (nil when none
// is kept).
//
// A miss at or below the cache's generation changes nothing but the miss
// count, so it is read under the read lock; a hit (the LRU touch) or a
// newer generation (the clear) takes the write lock.
func (s *Store) LookupKey(key string, generation uint64, contentType string) (*sparql.Result, []byte, bool) {
	s.mu.RLock()
	_, hit := s.entries[key]
	current := s.haveGen && generation <= s.generation
	s.mu.RUnlock()
	if current && !hit {
		s.misses.Add(1)
		return nil, nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admitLocked(generation)
	e, ok := s.entries[key]
	if !ok {
		s.misses.Add(1)
		return nil, nil, false
	}
	e.Hits++
	s.hits++
	s.touchLocked(key)
	return e.Result, e.bodies[contentType], true
}

// KeepBodyKey keeps data, res encoded in contentType, beside the entry of
// key (the query's Normalize text) while that entry holds res: a retag
// keeps it, a fold's new answer or an eviction drops it. Its length
// counts in the entry's Bytes, and other entries are evicted in LRU order
// when it takes the cache over MaxBytes; a body its entry alone cannot
// fit in MaxBytes is not kept.
func (s *Store) KeepBodyKey(key string, res *sparql.Result, contentType string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.Result != res || s.MaxBytes > 0 && e.Bytes+int64(len(data)) > s.MaxBytes {
		return
	}
	if e.bodies == nil {
		e.bodies = make(map[string][]byte)
	}
	grown := int64(len(data) - len(e.bodies[contentType]))
	e.bodies[contentType] = data
	e.Bytes += grown
	s.totalBytes += grown
	s.evictOverBudgetLocked(s.lruOf[key])
}

// RecordFootprint reports an executed query with its observed runtime and
// the generation it was computed at. The result is stored only when the
// runtime reaches the threshold and the generation is not older than the
// cache's; it returns whether the query was classified heavy. The
// footprint lets the entry survive delta-aware invalidation (ApplyDelta)
// for mutations disjoint from it; a nil footprint is evicted by any delta.
// shape is stored as the entry's Shape, for ApplyDelta's fold.
//
// The byte-cost walk over the result happens before the store lock is
// taken: a multi-megabyte result must not stall every concurrent Lookup
// (the hot tier-1 path) while its cost is computed.
func (s *Store) RecordFootprint(query string, res *sparql.Result, runtime time.Duration, generation uint64, fp *sparql.Footprint, shape any) bool {
	key := Normalize(query)
	if runtime < s.Threshold() {
		return false
	}
	bytes := ResultBytes(res)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.admitLocked(generation) {
		return true // heavy, but computed before a write the cache has seen
	}
	if s.MaxBytes > 0 && bytes > s.MaxBytes {
		// Heavy, but too large to ever fit the budget: classify without
		// storing rather than flushing the whole cache for one result.
		return true
	}
	if old, exists := s.entries[key]; exists {
		s.totalBytes -= old.Bytes
	}
	s.entries[key] = &Entry{Result: res, Runtime: runtime, StoredAt: time.Now(), Bytes: bytes, Footprint: fp, Shape: shape}
	s.totalBytes += bytes
	s.touchLocked(key)
	s.stores++
	s.evictOverBudgetLocked(s.lruOf[key])
	return true
}

// touchLocked moves key to the LRU front, inserting it if new.
func (s *Store) touchLocked(key string) {
	if el, ok := s.lruOf[key]; ok {
		s.lru.MoveToFront(el)
		return
	}
	s.lruOf[key] = s.lru.PushFront(key)
}

// removeLocked deletes key from the map, the LRU list, and the byte total.
func (s *Store) removeLocked(key string) {
	if e, ok := s.entries[key]; ok {
		s.totalBytes -= e.Bytes
		delete(s.entries, key)
	}
	if el, ok := s.lruOf[key]; ok {
		s.lru.Remove(el)
		delete(s.lruOf, key)
	}
}

// evictOverBudgetLocked drops least-recently-used entries until totalBytes
// fits MaxBytes again. keep (the element of the key just inserted, nil for
// none) is never evicted — a "" key is legitimate, so the guard compares
// list elements, not key strings.
func (s *Store) evictOverBudgetLocked(keep *list.Element) {
	if s.MaxBytes <= 0 {
		return
	}
	for s.totalBytes > s.MaxBytes && s.lru.Len() > 0 {
		back := s.lru.Back()
		if back == keep {
			return
		}
		s.removeLocked(back.Value.(string))
		s.evictions++
	}
}

// admitLocked moves the cache forward to generation, clearing it when the
// generation is newer than the contents, and reports whether generation
// is current. An older generation neither clears nor rolls the cache
// back.
func (s *Store) admitLocked(generation uint64) bool {
	switch {
	case !s.haveGen:
	case generation < s.generation:
		return false
	case generation > s.generation:
		s.clearLocked()
	}
	s.generation, s.haveGen = generation, true
	return true
}

// clearLocked is a wholesale invalidation: it resets the entries, the
// LRU order and the byte accounting, counted when it dropped anything.
func (s *Store) clearLocked() {
	if len(s.entries) > 0 {
		s.entries = make(map[string]*Entry)
		s.lruOf = make(map[string]*list.Element)
		s.lru.Init()
		s.totalBytes = 0
		s.invalidations++
	}
}

// ApplyDelta performs delta-aware invalidation for a mutation that moves
// the KB generation from 'from' to 'to': entries whose footprint is
// disjoint from the mutated triples survive and are re-tagged to the new
// generation. An entry whose footprint overlaps (or is nil/wild) is
// offered to fold, which returns the entry's answer at 'to' (its own
// Result when the mutation leaves it unchanged) or ok=false; only a
// refusal evicts it. fold runs under the store's lock. A rewritten
// answer is re-costed, and one larger than MaxBytes is evicted like a
// refusal; the budget then evicts in LRU order as usual. A cache already
// at 'to' or later has nothing to learn from the delta (a delta handed
// over after its write was published, which a reader at the new
// generation reached first) and is left alone. A cache at any other
// generation missed a write, so provenance is unknown and the paper's
// wholesale clear applies.
//
// publish, when not nil, runs last under the cache's lock: the proxy
// publishes the write there (a store.Carry's publish), so a reader that
// sees 'to' finds the cache already there.
//
// It returns how many entries were retained (folded ones included) and
// evicted.
func (s *Store) ApplyDelta(from, to uint64, ops []rdf.TripleOp, fold func(e *Entry) (*sparql.Result, bool), publish func()) (retained, evicted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if publish != nil {
		defer publish()
	}
	if s.haveGen && s.generation >= to {
		return 0, 0
	}
	if !s.haveGen || s.generation != from {
		n := len(s.entries)
		s.clearLocked()
		s.generation, s.haveGen = to, true
		return 0, n
	}
	// Collect first, then remove: removeLocked mutates s.entries. Each
	// entry's outcome depends on that entry alone, so map iteration order
	// cannot change the outcome.
	var dead []string
	folded := 0
	for k, e := range s.entries {
		if !e.Footprint.Overlaps(ops) {
			continue
		}
		//lint:ignore maporder each fold reads its own entry and the snapshot alone; the outcome is per-entry, so call order cannot reach output
		res, ok := fold(e)
		if ok && res != e.Result {
			bytes := ResultBytes(res)
			if ok = s.MaxBytes <= 0 || bytes <= s.MaxBytes; ok {
				// A new answer: the old one's bodies do not encode it.
				next := *e
				next.Result, next.Bytes, next.bodies = res, bytes, nil
				s.entries[k] = &next
				s.totalBytes += bytes - e.Bytes
				folded++
			}
		}
		if !ok {
			//lint:ignore maporder dead is a removal set; removeLocked is per-key and the counts are set-sized, order cannot reach output
			dead = append(dead, k)
		}
	}
	for _, k := range dead {
		s.removeLocked(k)
	}
	s.evictOverBudgetLocked(nil)
	retained = len(s.entries)
	evicted = len(dead)
	s.deltaEvictions += evicted
	s.deltaRetained += retained
	s.deltaFolded += folded
	if evicted > 0 && retained == 0 {
		s.invalidations++
	}
	s.generation = to
	return retained, evicted
}

// Len returns the number of cached entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Stats returns a snapshot of activity counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Entries:        len(s.entries),
		Bytes:          s.totalBytes,
		Hits:           s.hits,
		Misses:         int(s.misses.Load()),
		Stores:         s.stores,
		Evictions:      s.evictions,
		Invalidations:  s.invalidations,
		DeltaEvictions: s.deltaEvictions,
		DeltaRetained:  s.deltaRetained,
		DeltaFolded:    s.deltaFolded,
	}
}

// Entry returns the cache entry for a query, if present, without counting
// a hit. Intended for introspection and tests.
func (s *Store) Entry(query string) (*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[Normalize(query)]
	return e, ok
}
