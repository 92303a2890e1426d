package hvs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

func res(v string) *sparql.Result {
	return &sparql.Result{
		Vars: []string{"x"},
		Rows: []sparql.Solution{{"x": rdf.NewIRI("http://x/" + v)}},
	}
}

// refuse is an ApplyDelta fold that folds nothing, so every overlapping
// entry is evicted.
func refuse(*Entry) (*sparql.Result, bool) { return nil, false }

func TestNormalize(t *testing.T) {
	a := Normalize("SELECT ?s  WHERE {\n  ?s ?p ?o .\n}")
	b := Normalize("SELECT ?s WHERE { ?s ?p ?o . }")
	if a != b {
		t.Errorf("normalization differs: %q vs %q", a, b)
	}
}

func TestThresholdGating(t *testing.T) {
	s := New(time.Second)
	if s.RecordFootprint("q1", res("a"), 500*time.Millisecond, 1, nil, nil) {
		t.Error("sub-threshold query stored")
	}
	if s.Len() != 0 {
		t.Error("store should be empty")
	}
	if !s.RecordFootprint("q1", res("a"), 2*time.Second, 1, nil, nil) {
		t.Error("heavy query not stored")
	}
	got, ok := s.Lookup("q1", 1)
	if !ok || got.Rows[0]["x"].Value != "http://x/a" {
		t.Errorf("Lookup = (%v, %v)", got, ok)
	}
}

func TestDefaultThreshold(t *testing.T) {
	if New(0).Threshold() != DefaultThreshold {
		t.Error("zero threshold should default to 1s")
	}
	if New(-5).Threshold() != DefaultThreshold {
		t.Error("negative threshold should default to 1s")
	}
	if New(10*time.Millisecond).Threshold() != 10*time.Millisecond {
		t.Error("explicit threshold ignored")
	}
}

func TestLookupNormalizesKeys(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("SELECT ?s WHERE { ?s ?p ?o }", res("a"), time.Second, 1, nil, nil)
	if _, ok := s.Lookup("SELECT  ?s\nWHERE  { ?s ?p ?o }", 1); !ok {
		t.Error("whitespace variant missed the cache")
	}
}

func TestGenerationInvalidation(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("q", res("a"), time.Second, 1, nil, nil)
	if _, ok := s.Lookup("q", 1); !ok {
		t.Fatal("warm lookup missed")
	}
	// KB update: generation moves, cache must clear.
	if _, ok := s.Lookup("q", 2); ok {
		t.Error("stale entry served after KB update")
	}
	st := s.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	if s.Len() != 0 {
		t.Errorf("entries after invalidation = %d", s.Len())
	}
}

func TestRecordAtNewGenerationClears(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("q1", res("a"), time.Second, 1, nil, nil)
	s.RecordFootprint("q2", res("b"), time.Second, 2, nil, nil) // generation moved
	if s.Len() != 1 {
		t.Errorf("entries = %d, want 1 (q1 invalidated)", s.Len())
	}
	if _, ok := s.Lookup("q1", 2); ok {
		t.Error("q1 should be gone")
	}
	if _, ok := s.Lookup("q2", 2); !ok {
		t.Error("q2 should survive")
	}
}

// TestLookupAtOlderGenerationServesCurrent: a request that read the
// generation before a write and looks up after the cache moved on is
// served the cache's entry — an answer at a generation the store
// published after the request arrived — and neither clears the cache nor
// rolls it back.
func TestLookupAtOlderGenerationServesCurrent(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("q1", res("a"), time.Second, 2, nil, nil)
	s.RecordFootprint("q2", res("b"), time.Second, 2, nil, nil)
	if got, ok := s.Lookup("q1", 1); !ok || got.Rows[0]["x"].Value != "http://x/a" {
		t.Fatalf("lookup at generation 1 = (%v, %v), want generation 2's entry", got, ok)
	}
	if s.Len() != 2 || s.Stats().Invalidations != 0 {
		t.Fatalf("stale lookup cleared the cache: len=%d stats=%+v", s.Len(), s.Stats())
	}
	if _, ok := s.Lookup("q2", 2); !ok {
		t.Fatal("stale lookup rolled the cache back")
	}
}

// TestRecordAtOlderGenerationDropped: a result computed before a write
// the cache has already seen is classified heavy but never stored, and
// the cache keeps its generation.
func TestRecordAtOlderGenerationDropped(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("q1", res("a"), time.Second, 2, nil, nil)
	if !s.RecordFootprint("q2", res("old"), time.Second, 1, nil, nil) {
		t.Error("stale heavy result not classified heavy")
	}
	if _, ok := s.Entry("q2"); ok {
		t.Fatal("result of generation 1 stored in a generation-2 cache")
	}
	if _, ok := s.Lookup("q1", 2); !ok || s.Stats().Invalidations != 0 {
		t.Fatal("stale record cleared the cache or moved its generation")
	}
}

// TestApplyDeltaBehindCacheIsIgnored: a delta whose target generation the
// cache already reached (a reader at the new generation got there first,
// or the deltas arrived out of order) neither clears nor rolls back.
func TestApplyDeltaBehindCacheIsIgnored(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("q", res("a"), time.Second, 3, nil, nil)
	if retained, evicted := s.ApplyDelta(1, 3, opsFor(triple("s", "p", "o")), refuse, nil); retained != 0 || evicted != 0 {
		t.Fatalf("ApplyDelta(1, 3) at generation 3 = (%d, %d), want (0, 0)", retained, evicted)
	}
	if retained, evicted := s.ApplyDelta(0, 1, opsFor(triple("s", "p", "o")), refuse, nil); retained != 0 || evicted != 0 {
		t.Fatalf("ApplyDelta(0, 1) at generation 3 = (%d, %d), want (0, 0)", retained, evicted)
	}
	if _, ok := s.Lookup("q", 3); !ok {
		t.Fatal("late delta cleared the cache or rolled it back")
	}
}

// TestApplyDeltaPublishesUnderLock: publish runs once, with the cache's
// lock held and the cache at 'to', whether the delta folds, clears a
// cache that missed a write, or arrives behind the cache.
func TestApplyDeltaPublishesUnderLock(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("q", res("a"), time.Second, 1, nil, nil)
	for _, c := range []struct{ from, to, want uint64 }{
		{1, 2, 2}, // folds
		{5, 6, 6}, // missed a write: clears
		{3, 4, 6}, // behind the cache: left alone
	} {
		calls := 0
		s.ApplyDelta(c.from, c.to, opsFor(triple("s", "p", "o")), refuse, func() {
			calls++
			if s.mu.TryLock() {
				s.mu.Unlock()
				t.Errorf("ApplyDelta(%d, %d): publish ran without the cache's lock", c.from, c.to)
			}
			if s.generation != c.want {
				t.Errorf("ApplyDelta(%d, %d): publish ran with the cache at %d, want %d", c.from, c.to, s.generation, c.want)
			}
		})
		if calls != 1 {
			t.Errorf("ApplyDelta(%d, %d): publish ran %d times", c.from, c.to, calls)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	s := New(time.Millisecond)
	s.Lookup("missing", 1)
	s.RecordFootprint("q", res("a"), time.Second, 1, nil, nil)
	s.Lookup("q", 1)
	s.Lookup("q", 1)
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Stores != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	e, ok := s.Entry("q")
	if !ok || e.Hits != 2 || e.Runtime != time.Second {
		t.Errorf("entry = %+v, ok=%v", e, ok)
	}
}

// TestEvictionEmptyKey: a whitespace-only query normalizes to the empty
// string, which is a legitimate cache key; when it is also the least
// recently used entry, byte-budget eviction must still remove it, or the
// cache outgrows its budget.
func TestEvictionEmptyKey(t *testing.T) {
	s := New(time.Millisecond)
	s.MaxBytes = 2*ResultBytes(res("a")) + ResultBytes(res("a"))/2 // room for two
	s.RecordFootprint("   ", res("a"), time.Second, 1, nil, nil)   // key normalizes to ""
	if _, ok := s.Entry(""); !ok {
		t.Fatal("whitespace-only query not cached under the empty key")
	}
	s.RecordFootprint("q1", res("a"), time.Second, 1, nil, nil)
	s.Lookup("q1", 1) // "" is now the least recently used entry
	s.RecordFootprint("q2", res("b"), time.Second, 1, nil, nil)
	if s.Len() != 2 {
		t.Fatalf("entries = %d, want 2 (empty-key entry not evicted)", s.Len())
	}
	if _, ok := s.Entry(""); ok {
		t.Error("least recently used entry (empty key) should have been evicted")
	}
	if _, ok := s.Entry("q2"); !ok {
		t.Error("new entry q2 missing")
	}
}

// TestConcurrentGenerationChurn exercises the documented contract between
// the store's generation counter and HVS invalidation: readers may Lookup
// and Record under any generation while the KB generation advances; the
// cache must never serve an entry recorded under a generation older than
// the lookup's, nor one newer than the KB's when the lookup returns.
// Every recorded result embeds the generation it was recorded under, so a
// hit can verify which generation produced it.
func TestConcurrentGenerationChurn(t *testing.T) {
	s := New(time.Millisecond)
	var gen uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mu.Lock()
				if g == 0 && i%20 == 0 {
					gen++ // the writer: a KB update bumps the generation
				}
				cur := gen
				mu.Unlock()
				q := fmt.Sprintf("q%d", i%5)
				s.RecordFootprint(q, res(fmt.Sprintf("%s@gen%d", q, cur)), time.Second, cur, nil, nil)
				if got, ok := s.Lookup(q, cur); ok {
					mu.Lock()
					now := gen
					mu.Unlock()
					var at uint64
					v := got.Rows[0]["x"].Value
					if _, err := fmt.Sscanf(strings.TrimPrefix(v, "http://x/"+q), "@gen%d", &at); err != nil || at < cur || at > now {
						t.Errorf("lookup under generation %d (KB at %d) served %q", cur, now, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Invalidations == 0 {
		t.Error("generation churn caused no invalidations")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("q%d", i%10)
				s.RecordFootprint(q, res(q), time.Second, 1, nil, nil)
				s.Lookup(q, 1)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 10 {
		t.Errorf("entries = %d, want 10", s.Len())
	}
}

// TestConcurrentMissesCounted: misses at and below the cache's generation,
// which read under the read lock, race hits, which lock to touch the LRU;
// every lookup is counted once, and a miss changes nothing else.
func TestConcurrentMissesCounted(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("hit", res("hit"), time.Second, 2, nil, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, ok := s.Lookup(fmt.Sprintf("miss%d", i%3), uint64(1+i%2)); ok {
					t.Error("a missing key hit")
					return
				}
				if _, ok := s.Lookup("hit", 2); !ok {
					t.Error("a stored key missed")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Misses != 800 || st.Hits != 800 || st.Entries != 1 || st.Invalidations != 0 {
		t.Fatalf("stats after 800 misses and 800 hits: %+v", st)
	}
}

// resN builds a result with n rows so byte costs are controllable.
func resN(v string, n int) *sparql.Result {
	r := &sparql.Result{Vars: []string{"x"}}
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, sparql.Solution{"x": rdf.NewIRI("http://x/" + v)})
	}
	return r
}

func TestResultBytes(t *testing.T) {
	small, big := ResultBytes(resN("a", 1)), ResultBytes(resN("a", 100))
	if small <= 0 {
		t.Fatalf("ResultBytes(small) = %d", small)
	}
	if big <= small*50 {
		t.Errorf("100-row cost %d not proportional to 1-row cost %d", big, small)
	}
	if ResultBytes(nil) != 0 {
		t.Error("nil result should cost 0")
	}
	if askCost := ResultBytes(&sparql.Result{Ask: true, AskTrue: true}); askCost <= 0 {
		t.Errorf("ASK cost = %d, want small positive", askCost)
	}
}

// TestByteBudgetLRUEviction is the satellite test: inserting past the
// budget evicts in LRU order, and a Lookup refreshes recency.
func TestByteBudgetLRUEviction(t *testing.T) {
	s := New(time.Millisecond)
	one := ResultBytes(resN("a", 10))
	s.MaxBytes = 2*one + one/2 // room for two entries, not three

	s.RecordFootprint("q1", resN("a", 10), time.Second, 1, nil, nil)
	s.RecordFootprint("q2", resN("b", 10), time.Second, 1, nil, nil)
	if _, ok := s.Lookup("q1", 1); !ok { // q1 is now the most recent
		t.Fatal("q1 missing before eviction")
	}
	s.RecordFootprint("q3", resN("c", 10), time.Second, 1, nil, nil)

	if _, ok := s.Entry("q2"); ok {
		t.Error("q2 (least recently used) should have been evicted")
	}
	if _, ok := s.Entry("q1"); !ok {
		t.Error("q1 (recently used) evicted out of LRU order")
	}
	if _, ok := s.Entry("q3"); !ok {
		t.Error("q3 (just inserted) evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > s.MaxBytes || st.Bytes <= 0 {
		t.Errorf("bytes = %d, budget %d", st.Bytes, s.MaxBytes)
	}
}

// TestByteBudgetChainEviction: one large insert may evict several small
// entries at once.
func TestByteBudgetChainEviction(t *testing.T) {
	s := New(time.Millisecond)
	small := ResultBytes(resN("a", 5))
	s.MaxBytes = 4 * small
	for i := 0; i < 4; i++ {
		s.RecordFootprint(fmt.Sprintf("q%d", i), resN("a", 5), time.Second, 1, nil, nil)
	}
	s.RecordFootprint("big", resN("b", 15), time.Second, 1, nil, nil)
	if _, ok := s.Entry("big"); !ok {
		t.Fatal("big entry not stored")
	}
	if got := s.Stats().Bytes; got > s.MaxBytes {
		t.Errorf("bytes = %d over budget %d", got, s.MaxBytes)
	}
	if st := s.Stats(); st.Evictions < 3 {
		t.Errorf("evictions = %d, want >= 3", st.Evictions)
	}
}

// TestByteBudgetGenerationStillWins: generation invalidation clears the
// whole cache regardless of recency or budget headroom.
func TestByteBudgetGenerationStillWins(t *testing.T) {
	s := New(time.Millisecond)
	s.MaxBytes = 1 << 20
	s.RecordFootprint("q1", resN("a", 10), time.Second, 1, nil, nil)
	s.RecordFootprint("q2", resN("b", 10), time.Second, 1, nil, nil)
	s.Lookup("q1", 1)
	if _, ok := s.Lookup("q1", 2); ok { // KB update
		t.Fatal("stale entry served after generation move")
	}
	if s.Len() != 0 || s.Stats().Bytes != 0 {
		t.Errorf("len=%d bytes=%d after invalidation, want 0/0", s.Len(), s.Stats().Bytes)
	}
	if st := s.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// The cache keeps working at the new generation under the budget.
	s.RecordFootprint("q3", resN("c", 10), time.Second, 2, nil, nil)
	if _, ok := s.Lookup("q3", 2); !ok {
		t.Error("cache dead after invalidation")
	}
}

// TestOversizedEntryNotStored: a single result larger than the whole
// budget is classified heavy but never cached.
func TestOversizedEntryNotStored(t *testing.T) {
	s := New(time.Millisecond)
	s.MaxBytes = 128
	if !s.RecordFootprint("huge", resN("a", 1000), time.Second, 1, nil, nil) {
		t.Error("oversized result should still classify heavy")
	}
	if s.Len() != 0 {
		t.Errorf("oversized result stored: len=%d", s.Len())
	}
	if s.Stats().Bytes != 0 {
		t.Errorf("bytes = %d, want 0", s.Stats().Bytes)
	}
}

// TestByteBudgetConcurrent hammers the budgeted cache from many
// goroutines: the invariant is that accounting never drifts and the
// budget holds at every quiescent point.
func TestByteBudgetConcurrent(t *testing.T) {
	s := New(time.Millisecond)
	one := ResultBytes(resN("a", 10))
	s.MaxBytes = 3 * one
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("q%d", (g+i)%8)
				s.RecordFootprint(q, resN("a", 10), time.Second, 1, nil, nil)
				s.Lookup(q, 1)
			}
		}(g)
	}
	wg.Wait()
	if got := s.Stats().Bytes; got > s.MaxBytes {
		t.Errorf("bytes = %d over budget %d", got, s.MaxBytes)
	}
	if s.Len() > 3 {
		t.Errorf("len = %d, want <= 3", s.Len())
	}
}
