package main

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"elinda/internal/rdf"
	"elinda/internal/store"
	"elinda/internal/vfs"
)

// sweepStaleTemp removes *.tmp leftovers of interrupted atomic saves
// from the directory of each given persistence path. Empty paths are
// skipped; the WAL directory is swept by wal.Open itself.
func sweepStaleTemp(paths ...string) {
	seen := make(map[string]bool)
	for _, p := range paths {
		if p == "" {
			continue
		}
		dir := filepath.Dir(p)
		if seen[dir] {
			continue
		}
		seen[dir] = true
		removed, err := vfs.SweepTemp(vfs.OS, dir)
		if err != nil {
			log.Printf("stale temp sweep of %s: %v", dir, err)
			continue
		}
		for _, f := range removed {
			log.Printf("removed stale temp file %s", f)
		}
	}
}

// buildStore assembles the triple store by the fastest route available:
// a binary snapshot (instant warm start, no parsing), a streamed parallel
// ingest of a dataset file, or, with neither, an empty store. The second
// result reports whether the store came from the snapshot, so the caller
// can skip the redundant startup save.
func buildStore(snapPath, load string) (*store.Store, bool, error) {
	if snapPath != "" {
		start := time.Now()
		st, err := store.OpenSnapshot(snapPath)
		if err == nil {
			log.Printf("restored store snapshot %s in %s (%d triples, generation %d)",
				snapPath, time.Since(start).Round(time.Millisecond), st.Len(), st.Generation())
			return st, true, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			// A corrupt or incompatible snapshot is an operator problem;
			// silently re-parsing would hide it.
			return nil, false, err
		}
		log.Printf("no store snapshot at %s yet; cold loading", snapPath)
	}
	if load == "" {
		return store.New(0), false, nil
	}
	f, err := os.Open(load)
	if err != nil {
		return nil, false, fmt.Errorf("opening dataset: %w", err)
	}
	defer f.Close()
	st := store.New(0)
	start := time.Now()
	n, err := st.LoadStream(f, store.StreamOptions{Syntax: rdf.DetectFormat(load)})
	if err != nil {
		return nil, false, err
	}
	log.Printf("streamed %d triples from %s in %s", n, load, time.Since(start).Round(time.Millisecond))
	// A GC landing mid-ingest can set a heap goal twice the store's,
	// which serving then fills (peaks varied by ~150 MB between boots):
	// collect once so serving starts from a goal set by the store.
	runtime.GC()
	return st, false, nil
}
