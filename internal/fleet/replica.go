package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"elinda/internal/core"
	"elinda/internal/endpoint"
	"elinda/internal/metrics"
	"elinda/internal/netsim"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/store"
	"elinda/internal/wal"
)

// snapshotName is the on-disk name of an installed generation; the
// .partial suffix marks an in-progress (resumable) transfer of exactly
// that generation, so a resume can never splice two generations.
func snapshotName(gen uint64) string { return fmt.Sprintf("snap-%016x.elindsn", gen) }

// ReplicaOptions configures a replica agent.
type ReplicaOptions struct {
	// CoordinatorURL is the base URL of the coordinator (scheme://host:port).
	CoordinatorURL string
	// Dir is where fetched snapshots are installed (and partial
	// transfers parked for resume). Created if missing.
	Dir string
	// Transport is the outbound seam (nil = a fresh netsim.Transport):
	// every request to the coordinator flows through it, which is what
	// lets the chaos matrix crash replica hydration at any point.
	Transport http.RoundTripper
	// Proxy configures the serving stack mounted on each promoted
	// generation (HVS, coalescing, decomposer — the PR 4 tier runs
	// unchanged on every replica).
	Proxy proxy.Options
	// PollInterval is the manifest poll cadence for Run (0 = 2s).
	PollInterval time.Duration
	// RequestTimeout bounds each manifest/generation request (0 = 5s).
	RequestTimeout time.Duration
	// FetchTimeout bounds each snapshot transfer request — one Range
	// request, not the whole resumable download (0 = 5m).
	FetchTimeout time.Duration
	// FetchAttempts bounds how many transfer/verify rounds one SyncOnce
	// tries before reporting failure (0 = 4). Partial bytes survive
	// across rounds and across SyncOnce calls: progress is never lost,
	// only re-verified.
	FetchAttempts int
	// Warm precomputes level-zero aggregates on promotion before the
	// replica advertises ready.
	Warm bool
	// WALDir, when set, replays a colocated write-ahead log on top of
	// the first fetched snapshot (boot catch-up for a replica sharing
	// the writer's disk). Homogeneous fleets leave it empty: replaying
	// locally would fork the replica's generation off its siblings'.
	WALDir string
	// QueryTimeout bounds each query on the replica endpoint.
	QueryTimeout time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// replicaState is one promoted generation: an immutable store with its
// serving stack. Promotion swaps the whole state behind one atomic
// pointer; queries in flight keep the state they started with.
type replicaState struct {
	st  *store.Store
	px  *proxy.Proxy
	srv *endpoint.Server
	gen uint64
}

// Replica is the agent process of one read replica: it polls the
// coordinator, pulls new snapshot generations (resumable, CRC-verified,
// atomically installed), and hot-swaps its serving stack on promotion.
// Its Handler serves /sparql, /readyz, /healthz, /metrics and
// /fleet/generation.
type Replica struct {
	opts   ReplicaOptions
	client *http.Client
	ready  endpoint.Readiness
	cur    atomic.Pointer[replicaState]

	promotions  metrics.Counter
	syncErrors  metrics.Counter
	fetchRounds metrics.Counter
	resumedByte metrics.Counter
	fetchedByte metrics.Counter

	// phaseHook observes readiness phase transitions (tests only).
	phaseHook func(phase string)
}

// setPhase moves the readiness probe to a new not-ready phase.
func (r *Replica) setPhase(phase string) {
	r.ready.Set(phase)
	if r.phaseHook != nil {
		r.phaseHook(phase)
	}
}

// setServing flips the readiness probe to ready.
func (r *Replica) setServing() {
	r.ready.Ready()
	if r.phaseHook != nil {
		r.phaseHook("serving")
	}
}

// NewReplica returns an unhydrated replica agent; it reports not ready
// (phase "snapshot-fetch") until the first promotion succeeds.
func NewReplica(opts ReplicaOptions) *Replica {
	if opts.PollInterval <= 0 {
		opts.PollInterval = 2 * time.Second
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	if opts.FetchTimeout <= 0 {
		opts.FetchTimeout = 5 * time.Minute
	}
	if opts.FetchAttempts <= 0 {
		opts.FetchAttempts = 4
	}
	if opts.Transport == nil {
		opts.Transport = netsim.New(nil)
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	r := &Replica{
		opts:   opts,
		client: &http.Client{Transport: opts.Transport},
	}
	r.ready.Set("snapshot-fetch")
	return r
}

// Generation returns the currently served generation (0 before the
// first promotion).
func (r *Replica) Generation() uint64 {
	if s := r.cur.Load(); s != nil {
		return s.gen
	}
	return 0
}

// IsReady reports whether the replica is serving.
func (r *Replica) IsReady() bool { return r.ready.IsReady() }

// BeginDrain flips the readiness probe to 503 "draining" so the router
// stops sending new work while in-flight queries finish. The /sparql
// handler itself keeps serving: drain means "route around me", not
// "drop my requests".
func (r *Replica) BeginDrain() { r.ready.Set("draining") }

// Run polls the coordinator until ctx is done, promoting every new
// generation it sees. Sync errors are counted and logged, never fatal:
// an unreachable coordinator degrades freshness, not availability.
func (r *Replica) Run(ctx context.Context) {
	t := time.NewTicker(r.opts.PollInterval)
	defer t.Stop()
	for {
		if _, err := r.SyncOnce(ctx); err != nil && ctx.Err() == nil {
			r.opts.Logf("fleet replica: sync: %v", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// SyncOnce performs one poll-fetch-promote cycle and reports whether a
// promotion happened.
func (r *Replica) SyncOnce(ctx context.Context) (bool, error) {
	m, err := r.manifest(ctx)
	if err != nil {
		r.syncErrors.Inc()
		return false, err
	}
	cur := r.cur.Load()
	if cur != nil && m.Generation <= cur.gen {
		return false, nil
	}
	first := cur == nil
	if first {
		r.setPhase("snapshot-fetch")
	}
	path, err := r.fetchSnapshot(ctx, m)
	if err != nil {
		r.syncErrors.Inc()
		return false, err
	}
	// The loader re-validates the format's structure and CRC trailer: a
	// file the transfer-level checksum somehow passed but the format
	// rejects is removed so the next cycle re-fetches clean.
	st, err := store.OpenSnapshot(path)
	if err != nil {
		os.Remove(path)
		r.syncErrors.Inc()
		return false, fmt.Errorf("fleet: installed snapshot failed validation: %w", err)
	}
	if first && r.opts.WALDir != "" {
		r.setPhase("wal-replay")
		if err := r.replayWAL(st); err != nil {
			r.syncErrors.Inc()
			return false, err
		}
	}
	if first && r.opts.Warm {
		r.setPhase("warming")
	}
	r.promote(st, m.Generation)
	if first {
		r.setServing()
	}
	r.gcOldSnapshots(m.Generation)
	r.opts.Logf("fleet replica: promoted generation %d (%d triples)", m.Generation, st.Len())
	return true, nil
}

// promote builds the serving stack for st and swaps it in.
func (r *Replica) promote(st *store.Store, gen uint64) {
	px := proxy.New(st, r.opts.Proxy)
	if r.opts.Warm {
		h := core.NewExplorer(st).Hierarchy()
		if root := h.Root(); root != rdf.NoID {
			px.Decomposer().Warm(root)
		}
	}
	srv := endpoint.NewServer(px)
	srv.Timeout = r.opts.QueryTimeout
	r.cur.Store(&replicaState{st: st, px: px, srv: srv, gen: gen})
	r.promotions.Inc()
}

// replayWAL folds a colocated write-ahead log into the freshly fetched
// store (replay is idempotent against whatever the snapshot already
// holds).
func (r *Replica) replayWAL(st *store.Store) error {
	w, err := wal.Open(r.opts.WALDir, wal.Options{})
	if err != nil {
		return fmt.Errorf("fleet: wal replay: %w", err)
	}
	defer w.Close()
	n, err := w.ReplayOps(func(op rdf.TripleOp) error {
		_, err := st.Apply(store.DeltaOf(op))
		return err
	})
	if err != nil {
		return fmt.Errorf("fleet: wal replay: %w", err)
	}
	if n > 0 {
		r.opts.Logf("fleet replica: replayed %d WAL records", n)
	}
	return nil
}

// manifest fetches the coordinator's current Manifest.
func (r *Replica) manifest(ctx context.Context) (Manifest, error) {
	rctx, cancel := context.WithTimeout(ctx, r.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		strings.TrimSuffix(r.opts.CoordinatorURL, "/")+"/fleet/manifest", nil)
	if err != nil {
		return Manifest{}, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return Manifest{}, fmt.Errorf("fleet: manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Manifest{}, fmt.Errorf("fleet: manifest: status %d", resp.StatusCode)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("fleet: manifest: %w", err)
	}
	if m.Size <= 0 || m.SnapshotPath == "" {
		return Manifest{}, errors.New("fleet: manifest: malformed")
	}
	return m, nil
}

// fetchSnapshot downloads the manifest's snapshot into Dir and installs
// it atomically, resuming any partial transfer of the same generation.
// It returns the installed path.
func (r *Replica) fetchSnapshot(ctx context.Context, m Manifest) (string, error) {
	if err := os.MkdirAll(r.opts.Dir, 0o755); err != nil {
		return "", fmt.Errorf("fleet: fetch: %w", err)
	}
	final := filepath.Join(r.opts.Dir, snapshotName(m.Generation))
	if fi, err := os.Stat(final); err == nil && fi.Size() == m.Size {
		// Already installed (e.g. a restart right after install): the
		// loader will still CRC-validate it.
		return final, nil
	}
	part := final + ".partial"
	var lastErr error
	for attempt := 0; attempt < r.opts.FetchAttempts; attempt++ {
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		r.fetchRounds.Inc()
		have := int64(0)
		if fi, err := os.Stat(part); err == nil {
			have = fi.Size()
		}
		if have > m.Size {
			// A partial longer than the target can only be garbage.
			os.Remove(part)
			have = 0
		}
		if have < m.Size {
			if have > 0 {
				r.resumedByte.Add(uint64(have))
			}
			if err := r.fetchRange(ctx, m, part, have); err != nil {
				lastErr = err
				continue // partial bytes kept; next round resumes
			}
		}
		fi, err := os.Stat(part)
		if err != nil || fi.Size() != m.Size {
			lastErr = fmt.Errorf("fleet: fetch: incomplete transfer (%v)", err)
			continue
		}
		sum, err := crcFile(part)
		if err != nil {
			lastErr = err
			os.Remove(part)
			continue
		}
		if sum != m.CRC32 {
			// Corrupt transfer: resuming on top of bad bytes can never
			// heal, so restart the transfer from zero.
			lastErr = fmt.Errorf("fleet: fetch: CRC mismatch (got %08x want %08x)", sum, m.CRC32)
			os.Remove(part)
			continue
		}
		if err := installAtomic(part, final); err != nil {
			return "", err
		}
		return final, nil
	}
	return "", fmt.Errorf("fleet: fetch of generation %d failed after %d attempts: %w",
		m.Generation, r.opts.FetchAttempts, lastErr)
}

// fetchRange issues one transfer request, resuming at offset have, and
// appends whatever arrives to part. A mid-transfer error keeps the
// bytes already written — that is the resume contract.
func (r *Replica) fetchRange(ctx context.Context, m Manifest, part string, have int64) error {
	fctx, cancel := context.WithTimeout(ctx, r.opts.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet,
		strings.TrimSuffix(r.opts.CoordinatorURL, "/")+m.SnapshotPath, nil)
	if err != nil {
		return err
	}
	if have > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", have))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: fetch: %w", err)
	}
	defer resp.Body.Close()

	flags := os.O_CREATE | os.O_WRONLY
	switch resp.StatusCode {
	case http.StatusPartialContent:
		flags |= os.O_APPEND
	case http.StatusOK:
		// The server ignored the Range header (or we asked from 0):
		// restart the file.
		flags |= os.O_TRUNC
	case http.StatusNotFound:
		// Generation superseded mid-transfer; the partial is useless.
		os.Remove(part)
		return fmt.Errorf("fleet: fetch: generation %d gone", m.Generation)
	default:
		return fmt.Errorf("fleet: fetch: status %d", resp.StatusCode)
	}
	f, err := os.OpenFile(part, flags, 0o644)
	if err != nil {
		return fmt.Errorf("fleet: fetch: %w", err)
	}
	n, copyErr := io.Copy(f, resp.Body)
	r.fetchedByte.Add(uint64(n))
	if err := f.Close(); err != nil && copyErr == nil {
		copyErr = err
	}
	if copyErr != nil {
		return fmt.Errorf("fleet: fetch: %w", copyErr)
	}
	return nil
}

// installAtomic promotes a fully verified partial file to its final
// name with the same discipline as local snapshot saves: sync the data,
// rename, sync the directory — a crash mid-install leaves either the
// old state or the new file, never a torn one.
func installAtomic(part, final string) error {
	f, err := os.Open(part)
	if err != nil {
		return fmt.Errorf("fleet: install: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("fleet: install: %w", err)
	}
	f.Close()
	if err := os.Rename(part, final); err != nil {
		return fmt.Errorf("fleet: install: %w", err)
	}
	if d, err := os.Open(filepath.Dir(final)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// crcFile computes the IEEE CRC-32 of a file's contents.
func crcFile(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("fleet: fetch: %w", err)
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, fmt.Errorf("fleet: fetch: %w", err)
	}
	return h.Sum32(), nil
}

// gcOldSnapshots removes installed generations older than keep — the
// previous generation's file has served its purpose once the new one is
// live (the in-memory store needs no backing file).
func (r *Replica) gcOldSnapshots(keep uint64) {
	entries, err := os.ReadDir(r.opts.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		var gen uint64
		if _, err := fmt.Sscanf(name, "snap-%016x.elindsn", &gen); err != nil {
			continue
		}
		if gen < keep && name == snapshotName(gen) {
			os.Remove(filepath.Join(r.opts.Dir, name))
		}
	}
}

// Handler returns the replica's HTTP surface.
func (r *Replica) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", func(w http.ResponseWriter, req *http.Request) {
		s := r.cur.Load()
		if s == nil {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "replica hydrating", http.StatusServiceUnavailable)
			return
		}
		s.srv.ServeHTTP(w, req)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		// The ready form carries the generation so the router's health
		// probe learns freshness and readiness in one request.
		if r.ready.IsReady() {
			fmt.Fprintf(w, "ready generation=%d\n", r.Generation())
			return
		}
		r.ready.ServeHTTP(w, req)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		s := r.cur.Load()
		if s == nil {
			fmt.Fprintf(w, "ok hydrating\n")
			return
		}
		fmt.Fprintf(w, "ok triples=%d generation=%d\n", s.st.Len(), s.gen)
	})
	mux.HandleFunc("/fleet/generation", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintf(w, "%d\n", r.Generation())
	})
	return endpoint.Ops(mux, r.opts.Logf, func(doc map[string]any) {
		doc["replica"] = r.MetricsSnapshot()
		if s := r.cur.Load(); s != nil {
			doc["server"] = s.srv.MetricsSnapshot()
			doc["proxy"] = s.px.MetricsSnapshot()
			doc["store"] = map[string]any{"triples": s.st.Len(), "generation": s.gen}
		}
	})
}

// ReplicaMetrics is the replica agent's /metrics section.
type ReplicaMetrics struct {
	Generation   uint64 `json:"generation"`
	Ready        bool   `json:"ready"`
	Promotions   uint64 `json:"promotions"`
	SyncErrors   uint64 `json:"sync_errors"`
	FetchRounds  uint64 `json:"fetch_rounds"`
	ResumedBytes uint64 `json:"resumed_bytes"`
	FetchedBytes uint64 `json:"fetched_bytes"`
}

// MetricsSnapshot captures the agent's counters.
func (r *Replica) MetricsSnapshot() ReplicaMetrics {
	return ReplicaMetrics{
		Generation:   r.Generation(),
		Ready:        r.ready.IsReady(),
		Promotions:   r.promotions.Value(),
		SyncErrors:   r.syncErrors.Value(),
		FetchRounds:  r.fetchRounds.Value(),
		ResumedBytes: r.resumedByte.Value(),
		FetchedBytes: r.fetchedByte.Value(),
	}
}
