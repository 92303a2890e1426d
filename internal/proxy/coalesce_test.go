package proxy

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"elinda/internal/sparql"
)

// countingExec is a backend that counts executions and can hold them open
// long enough for concurrent requests to pile up behind the flight.
type countingExec struct {
	mu    sync.Mutex
	calls int
	delay time.Duration
	res   *sparql.Result
}

func (c *countingExec) Query(ctx context.Context, src string) (*sparql.Result, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	select {
	case <-time.After(c.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return c.res, nil
}

func (c *countingExec) QueryRows(ctx context.Context, src string, sink sparql.RowSink) error {
	res, err := c.Query(ctx, src)
	if err != nil {
		return err
	}
	return sparql.ReplayResult(res, sink)
}

func (c *countingExec) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func coalesceFixture(t *testing.T, delay time.Duration, opts Options) (*Proxy, *countingExec) {
	t.Helper()
	exec := &countingExec{
		delay: delay,
		res: &sparql.Result{
			Vars: []string{"s"},
			Rows: []sparql.Solution{{"s": ex("plato")}, {"s": ex("aristotle")}},
		},
	}
	return NewWithBackend(fixture(t), exec, opts), exec
}

// TestCoalescingSingleExecution is the tentpole race test: K concurrent
// identical queries against the same generation must execute the backend
// exactly once and all share the result.
func TestCoalescingSingleExecution(t *testing.T) {
	p, exec := coalesceFixture(t, 50*time.Millisecond,
		Options{DisableDecomposer: true, HeavyThreshold: time.Hour})

	const K = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*sparql.Result, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = p.Query(context.Background(), plainQuery)
		}(i)
	}
	close(start)
	wg.Wait()

	if got := exec.count(); got != 1 {
		t.Fatalf("backend executions = %d, want exactly 1", got)
	}
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(results[i].Rows) != 2 {
			t.Fatalf("request %d: rows = %d", i, len(results[i].Rows))
		}
	}
	if got := p.MetricsSnapshot().Counts["backend"]; got != K {
		t.Errorf("backend route count = %d, want %d (every request recorded)", got, K)
	}
	if m := p.MetricsSnapshot(); m.Coalesced != K-1 {
		t.Errorf("coalesced = %d, want %d", m.Coalesced, K-1)
	}
}

// TestCoalescingStreamingSingleExecution is the same race through the
// streaming path: the leader streams, followers replay the shared result.
func TestCoalescingStreamingSingleExecution(t *testing.T) {
	p, exec := coalesceFixture(t, 50*time.Millisecond,
		Options{DisableDecomposer: true, HeavyThreshold: time.Hour})

	const K = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	sinks := make([]*collectSink, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		sinks[i] = &collectSink{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = p.QueryRows(context.Background(), plainQuery, sinks[i])
		}(i)
	}
	close(start)
	wg.Wait()

	if got := exec.count(); got != 1 {
		t.Fatalf("backend executions = %d, want exactly 1", got)
	}
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(sinks[i].res.Rows) != 2 {
			t.Fatalf("request %d: rows = %d", i, len(sinks[i].res.Rows))
		}
	}
}

// TestCoalescingDistinctQueries: different query texts must not share an
// execution.
func TestCoalescingDistinctQueries(t *testing.T) {
	p, exec := coalesceFixture(t, 30*time.Millisecond,
		Options{DisableDecomposer: true, HeavyThreshold: time.Hour})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf(`SELECT ?s WHERE { ?s a <http://example.org/C%d> . }`, i)
			if _, err := p.Query(context.Background(), q); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := exec.count(); got != 4 {
		t.Errorf("backend executions = %d, want 4", got)
	}
}

// TestCoalescingFollowerRetriesAfterLeaderCancel: a follower whose leader
// was canceled re-runs the query itself instead of inheriting the
// leader's context error. The backend holds every execution until it is
// released, so the leader's cancel always lands while it runs.
func TestCoalescingFollowerRetriesAfterLeaderCancel(t *testing.T) {
	exec := newGatedExec()
	p := NewWithBackend(fixture(t), exec, Options{DisableDecomposer: true, HeavyThreshold: time.Hour})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := p.Query(leaderCtx, plainQuery)
		leaderErr <- err
	}()
	// Once the leader runs, attach a follower and kill the leader.
	<-exec.entered
	followerDone := make(chan error, 1)
	go func() {
		_, err := p.Query(context.Background(), plainQuery)
		followerDone <- err
	}()
	awaitFollower(t, p)
	cancelLeader()

	if err := <-leaderErr; err == nil {
		t.Error("canceled leader should fail")
	}
	close(exec.release) // the follower's own execution may finish
	if err := <-followerDone; err != nil {
		t.Errorf("follower should retry and succeed, got %v", err)
	}
	if got := exec.calls.Load(); got < 2 {
		t.Errorf("backend executions = %d, want >= 2 (leader + follower retry)", got)
	}
}

// TestCoalescingFollowerHonorsOwnContext: a follower with a dead context
// must not block on the flight.
func TestCoalescingFollowerHonorsOwnContext(t *testing.T) {
	p, _ := coalesceFixture(t, 80*time.Millisecond,
		Options{DisableDecomposer: true, HeavyThreshold: time.Hour})
	go p.Query(context.Background(), plainQuery)
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Query(ctx, plainQuery)
	if err == nil {
		t.Error("follower with expired context should fail")
	}
	if elapsed := time.Since(start); elapsed > 60*time.Millisecond {
		t.Errorf("follower waited %v past its own deadline", elapsed)
	}
}

// TestCoalescedResultStillCached: with the HVS on, a coalesced heavy
// execution must land in the cache so later requests hit tier 1.
func TestCoalescedResultStillCached(t *testing.T) {
	p, exec := coalesceFixture(t, 30*time.Millisecond,
		Options{DisableDecomposer: true, HeavyThreshold: time.Millisecond})
	const K = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := p.Query(context.Background(), plainQuery); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := exec.count(); got != 1 {
		t.Fatalf("backend executions = %d, want 1", got)
	}
	_, tr, err := p.QueryTraced(context.Background(), plainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Route != RouteHVS {
		t.Errorf("post-coalescing route = %v, want hvs", tr.Route)
	}
	if got := exec.count(); got != 1 {
		t.Errorf("cache hit re-executed the backend: %d", got)
	}
}

// TestCoalescedStreamingSharesExecutionOnly: a follower must be released as soon as the leader's EXECUTION finishes —
// never waiting on the leader's client drain — and the cached runtime is
// execution-only. The leader's sink here blocks after the first row to
// simulate a slow client.
func TestCoalescedStreamingSharesExecutionOnly(t *testing.T) {
	p, exec := coalesceFixture(t, 20*time.Millisecond,
		Options{DisableDecomposer: true, HeavyThreshold: time.Millisecond})
	release := make(chan struct{})
	slow := &slowSink{afterRows: 1, release: release}
	errc := make(chan error, 1)
	go func() { errc <- p.QueryRows(context.Background(), plainQuery, slow) }()
	time.Sleep(10 * time.Millisecond) // leader registered its flight

	// The follower must complete while the leader's client is stuck.
	var follower collectSink
	done := make(chan error, 1)
	go func() { done <- p.QueryRows(context.Background(), plainQuery, &follower) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower blocked on the leader's slow client")
	}
	if len(follower.res.Rows) != 2 {
		t.Fatalf("follower rows = %d", len(follower.res.Rows))
	}
	if got := exec.count(); got != 1 {
		t.Errorf("backend executions = %d, want 1", got)
	}
	// The heavy-classification runtime must reflect execution, not the
	// still-blocked client drain.
	if e, ok := p.HVS().Entry(plainQuery); ok && e.Runtime > time.Second {
		t.Errorf("cached runtime %v includes client drain time", e.Runtime)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// slowSink accepts afterRows rows then blocks until released.
type slowSink struct {
	afterRows int
	release   chan struct{}
	rows      int
}

func (s *slowSink) Head(vars []string, ask, askTrue bool) error { return nil }
func (s *slowSink) Row(sol sparql.Solution) error {
	s.rows++
	if s.rows > s.afterRows {
		<-s.release
	}
	return nil
}
