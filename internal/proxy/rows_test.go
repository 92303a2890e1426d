package proxy

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"elinda/internal/sparql"
)

// collectSink buffers what QueryRows replays, so it can be compared with
// what Query returns.
type collectSink struct{ res sparql.Result }

func (c *collectSink) Head(vars []string, ask, askTrue bool) error {
	c.res.Vars, c.res.Ask, c.res.AskTrue = vars, ask, askTrue
	return nil
}

func (c *collectSink) Row(sol sparql.Solution) error {
	c.res.Rows = append(c.res.Rows, sol)
	return nil
}

// failSink accepts n rows and then fails every Row with err — a client
// that goes away mid-replay.
type failSink struct {
	n   int
	err error
}

func (s *failSink) Head(vars []string, ask, askTrue bool) error { return nil }
func (s *failSink) Row(sol sparql.Solution) error {
	if s.n--; s.n < 0 {
		return s.err
	}
	return nil
}

// gatedExec is a backend whose executions announce themselves on entered
// and then block until release is closed, so a test decides when a
// flight's leader finishes.
type gatedExec struct {
	calls   atomic.Int32
	entered chan struct{}
	release chan struct{}
	res     *sparql.Result
}

func newGatedExec() *gatedExec {
	return &gatedExec{
		// Buffered to the most executions any test here can cause, so an
		// unexpected second execution shows up in calls, not as a hang.
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
		res: &sparql.Result{
			Vars: []string{"s"},
			Rows: []sparql.Solution{{"s": ex("plato")}, {"s": ex("aristotle")}, {"s": ex("kant")}},
		},
	}
}

func (g *gatedExec) Query(ctx context.Context, src string) (*sparql.Result, error) {
	g.calls.Add(1)
	g.entered <- struct{}{}
	select {
	case <-g.release:
		return g.res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// awaitFollower returns once a second request has missed the HVS behind
// the blocked leader — the last observable step before it attaches to the
// flight — plus a grace period for the few instructions in between.
func awaitFollower(t *testing.T, p *Proxy) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.HVS().Stats().Misses < 2 {
		if time.Now().After(deadline) {
			t.Fatal("follower never reached the proxy")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

type readFn func(p *Proxy, src string) (*sparql.Result, error)

func viaQuery(p *Proxy, src string) (*sparql.Result, error) {
	return p.Query(context.Background(), src)
}

func viaQueryRows(p *Proxy, src string) (*sparql.Result, error) {
	var sink collectSink
	if err := p.QueryRows(context.Background(), src, &sink); err != nil {
		return nil, err
	}
	return &sink.res, nil
}

// TestQueryRowsEqualsQuery pins the one read path: whichever tier answers
// — HVS hit, decomposer, backend leader, coalesced follower — QueryRows
// delivers the vars and rows Query returns and moves the same route and
// coalescing counters.
func TestQueryRowsEqualsQuery(t *testing.T) {
	scenarios := []struct {
		name      string
		counts    map[string]int
		coalesced uint64
		// run drives a fresh proxy through read and returns the answer
		// under comparison.
		run func(t *testing.T, read readFn) (*sparql.Result, *Proxy)
	}{
		{"hvs hit", map[string]int{"backend": 1, "hvs": 1}, 0, func(t *testing.T, read readFn) (*sparql.Result, *Proxy) {
			p := New(fixture(t), Options{HeavyThreshold: time.Nanosecond, DisableDecomposer: true})
			if _, err := read(p, plainQuery); err != nil {
				t.Fatal(err)
			}
			res, err := read(p, plainQuery)
			if err != nil {
				t.Fatal(err)
			}
			return res, p
		}},
		{"decomposer", map[string]int{"decomposer": 1}, 0, func(t *testing.T, read readFn) (*sparql.Result, *Proxy) {
			p := New(fixture(t), Options{HeavyThreshold: time.Hour})
			res, err := read(p, expansionQuery)
			if err != nil {
				t.Fatal(err)
			}
			return res, p
		}},
		{"backend leader", map[string]int{"backend": 1}, 0, func(t *testing.T, read readFn) (*sparql.Result, *Proxy) {
			p := New(fixture(t), Options{HeavyThreshold: time.Hour, DisableDecomposer: true})
			res, err := read(p, plainQuery)
			if err != nil {
				t.Fatal(err)
			}
			return res, p
		}},
		{"coalesced follower", map[string]int{"backend": 2}, 1, func(t *testing.T, read readFn) (*sparql.Result, *Proxy) {
			exec := newGatedExec()
			p := NewWithBackend(fixture(t), exec, Options{HeavyThreshold: time.Hour, DisableDecomposer: true})
			leaderErr := make(chan error, 1)
			go func() {
				_, err := read(p, plainQuery)
				leaderErr <- err
			}()
			<-exec.entered
			type answer struct {
				res *sparql.Result
				err error
			}
			follower := make(chan answer, 1)
			go func() {
				res, err := read(p, plainQuery)
				follower <- answer{res, err}
			}()
			awaitFollower(t, p)
			close(exec.release)
			if err := <-leaderErr; err != nil {
				t.Fatal(err)
			}
			got := <-follower
			if got.err != nil {
				t.Fatal(got.err)
			}
			if n := exec.calls.Load(); n != 1 {
				t.Fatalf("backend executions = %d, want 1 (follower did not coalesce)", n)
			}
			return got.res, p
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want, pq := sc.run(t, viaQuery)
			got, pr := sc.run(t, viaQueryRows)
			if len(want.Rows) == 0 {
				t.Fatal("scenario answers no rows; the comparison would be vacuous")
			}
			if !reflect.DeepEqual(got.Vars, want.Vars) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("QueryRows delivered %v %v, Query returned %v %v", got.Vars, got.Rows, want.Vars, want.Rows)
			}
			for _, p := range []*Proxy{pq, pr} {
				if c := p.MetricsSnapshot().Counts; !reflect.DeepEqual(c, sc.counts) {
					t.Errorf("route counts = %v, want %v", c, sc.counts)
				}
				if c := p.MetricsSnapshot().Coalesced; c != sc.coalesced {
					t.Errorf("coalesced = %d, want %d", c, sc.coalesced)
				}
			}
		})
	}
}

// TestQueryRowsSinkErrorStaysLocal: a sink that fails mid-replay gets its
// own error back unchanged, and the failure stays with that request — the
// flight it led still answers its follower, the heavy result is cached
// whole, and a failing replay of the cached entry leaves it in place.
func TestQueryRowsSinkErrorStaysLocal(t *testing.T) {
	exec := newGatedExec()
	p := NewWithBackend(fixture(t), exec, Options{HeavyThreshold: time.Nanosecond, DisableDecomposer: true})
	boom := errors.New("client went away")
	ctx := context.Background()

	leaderErr := make(chan error, 1)
	go func() { leaderErr <- p.QueryRows(ctx, plainQuery, &failSink{n: 1, err: boom}) }()
	<-exec.entered
	var follower collectSink
	followerErr := make(chan error, 1)
	go func() { followerErr <- p.QueryRows(ctx, plainQuery, &follower) }()
	awaitFollower(t, p)
	close(exec.release)

	if err := <-leaderErr; err != boom {
		t.Errorf("leader error = %v, want the sink's own error unchanged", err)
	}
	if err := <-followerErr; err != nil {
		t.Fatalf("follower inherited the leader's sink failure: %v", err)
	}
	if !reflect.DeepEqual(follower.res.Rows, exec.res.Rows) {
		t.Errorf("follower rows = %v, want %v", follower.res.Rows, exec.res.Rows)
	}
	if n := exec.calls.Load(); n != 1 {
		t.Errorf("backend executions = %d, want 1", n)
	}

	assertCachedWhole := func(when string) {
		t.Helper()
		res, tr, err := p.QueryTraced(ctx, plainQuery)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Route != RouteHVS || p.HVS().Len() != 1 {
			t.Errorf("%s: route = %v with %d entries, want an HVS hit on the one entry", when, tr.Route, p.HVS().Len())
		}
		if !reflect.DeepEqual(res.Rows, exec.res.Rows) {
			t.Errorf("%s: cached rows = %v, want %v", when, res.Rows, exec.res.Rows)
		}
	}
	assertCachedWhole("after the leader's sink failed")
	if err := p.QueryRows(ctx, plainQuery, &failSink{n: 1, err: boom}); err != boom {
		t.Errorf("HVS replay error = %v, want the sink's own error unchanged", err)
	}
	assertCachedWhole("after a failed replay of the entry")
}
