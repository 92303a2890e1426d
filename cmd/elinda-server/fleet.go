package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"elinda/internal/endpoint"
	"elinda/internal/fleet"
	"elinda/internal/proxy"
	"elinda/internal/router"
)

// fleetFlags carries the -role specific configuration out of main.
type fleetFlags struct {
	role        string
	coordinator string // replica: coordinator base URL
	dir         string // replica: snapshot cache directory
	poll        time.Duration
	replicas    string // router: comma-separated [name=]url list
	probe       time.Duration
	retryBudget int
	hedgeDelay  time.Duration
	noHedge     bool
	breakerFail int
	breakerOpen time.Duration
	fallback    bool // router: serve from an embedded local store as last resort
}

// serveWithDrain runs an HTTP server until SIGINT/SIGTERM, then drains:
// the readiness flip happens via beginDrain before Shutdown so load
// balancers and the fleet router route around the instance first, and the
// savers run once the drain is over. Every role serves through it; handler
// already recovers its own panics (endpoint.Ops).
func serveWithDrain(addr string, handler http.Handler, drain time.Duration, beginDrain func(), bg func(ctx context.Context), savers []saver) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if bg != nil {
		go bg(ctx)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of queueing
	}
	if beginDrain != nil {
		beginDrain()
	}
	log.Printf("shutdown signal received; draining for up to %s", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	runSavers(savers)
	log.Printf("bye")
	return nil
}

// runReplica boots a read replica: no local dataset, everything pulled
// from the coordinator.
func runReplica(addr string, ff fleetFlags, popts proxy.Options, warm bool, walDir string, timeout, drain time.Duration) error {
	if ff.coordinator == "" {
		return fmt.Errorf("-role=replica requires -fleet-coordinator")
	}
	r := fleet.NewReplica(fleet.ReplicaOptions{
		CoordinatorURL: ff.coordinator,
		Dir:            ff.dir,
		Proxy:          popts,
		PollInterval:   ff.poll,
		Warm:           warm,
		WALDir:         walDir,
		QueryTimeout:   timeout,
		Logf:           log.Printf,
	})
	log.Printf("eLinda replica on %s (coordinator=%s dir=%s poll=%s)", addr, ff.coordinator, ff.dir, ff.poll)
	return serveWithDrain(addr, r.Handler(), drain, r.BeginDrain, r.Run, nil)
}

// runRouter boots the fleet front tier.
func runRouter(addr string, ff fleetFlags, fallback http.Handler, drain time.Duration) error {
	if ff.replicas == "" {
		return fmt.Errorf("-role=router requires -fleet-replicas")
	}
	var cfgs []router.ReplicaConfig
	for i, item := range strings.Split(ff.replicas, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, u := fmt.Sprintf("replica-%d", i), item
		if eq := strings.Index(item, "="); eq > 0 && !strings.Contains(item[:eq], "/") {
			name, u = item[:eq], item[eq+1:]
		}
		cfgs = append(cfgs, router.ReplicaConfig{Name: name, BaseURL: u})
	}
	rt := router.New(router.Options{
		Replicas:       cfgs,
		ProbeInterval:  ff.probe,
		RetryBudget:    ff.retryBudget,
		HedgeDelay:     ff.hedgeDelay,
		DisableHedging: ff.noHedge,
		Breaker:        router.BreakerConfig{FailureThreshold: ff.breakerFail, OpenFor: ff.breakerOpen},
		Fallback:       fallback,
		Logf:           log.Printf,
	})
	log.Printf("eLinda router on %s (%d replicas, probe=%s, hedging=%v, local fallback=%v)",
		addr, len(cfgs), ff.probe, !ff.noHedge, fallback != nil)
	return serveWithDrain(addr, rt.Handler(), drain, nil, rt.Run, nil)
}

// mountCoordinator attaches the fleet publication endpoints and the
// coordinator-only metrics document.
func mountCoordinator(mux *http.ServeMux, c *fleet.Coordinator) {
	c.Register(mux)
	mux.HandleFunc("/fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		endpoint.WriteMetricsDoc(w, map[string]any{"coordinator": c.MetricsSnapshot()})
	})
}
