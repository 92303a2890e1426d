package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// Well-known IRIs of the generated dataset.
const (
	influencedBy = ontNS + "influencedBy"
	birthPlace   = ontNS + "birthPlace"
	deathPlace   = ontNS + "deathPlace"
	nationality  = ontNS + "nationality"
	cites        = ontNS + "cites" // used only by the pre-seeded WAL
)

func ont(local string) string { return ontNS + local }
func res(local string) string { return resNS + local }

// walSeedRecords is the length of the WAL that mixed_rw boots replay.
const walSeedRecords = 20000

// writePoolSize is the number of distinct triples mixed_rw inserts and
// deletes; each client owns a disjoint half.
const writePoolSize = 4096

// dataset is everything a run derives from (-seed, -scale): the files the
// server boots from and the oracle the checks use. The server only ever
// sees the files.
type dataset struct {
	seed  int64
	scale int
	facts facts
	// typeCounts maps a class IRI to the number of subjects typed with it,
	// counted from the generated triples (not from the store).
	typeCounts map[string]int
	digest     string

	nt, snap, walDir string // "" when the workload does not need the file
	writePool        []triple
	walSeed          []triple // the records of the pre-seeded WAL
	datagenSeconds   float64
}

// needs says which files a workload boots from.
type needs struct{ nt, snap, wal bool }

// makeDataset generates the dataset for (seed, scale) and writes the
// requested files under dir.
func makeDataset(dir string, seed int64, scale int, n needs) (*dataset, error) {
	start := time.Now()
	g := generate(seed, scale)
	d := &dataset{seed: seed, scale: scale, facts: g.facts()}
	var pairs map[string]struct{}
	d.typeCounts, pairs, d.digest = g.scan(influencedBy, birthPlace)

	if n.nt {
		d.nt = filepath.Join(dir, "data.nt")
		if err := g.writeNTriples(d.nt); err != nil {
			return nil, fmt.Errorf("writing n-triples: %w", err)
		}
	}
	if n.snap {
		d.snap = filepath.Join(dir, "data.snap")
		if err := g.writeSnapshot(d.snap); err != nil {
			return nil, fmt.Errorf("writing snapshot: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	d.writePool = d.makeWritePool(rng, pairs)
	if n.wal {
		d.walDir = filepath.Join(dir, "wal")
		d.walSeed = d.makeWALSeed(rng)
		if err := seedWAL(d.walDir, d.walSeed); err != nil {
			return nil, fmt.Errorf("seeding wal: %w", err)
		}
	}
	d.datagenSeconds = time.Since(start).Seconds()
	// The generator's ~GB of garbage must not share the box with the
	// measured server.
	g = nil
	runtime.GC()
	debug.FreeOSMemory()
	return d, nil
}

// makeWritePool draws triples absent from the base data: even slots link
// a philosopher to a scientist by influencedBy, odd slots give a scientist
// a city as birthPlace, so writes overlap the footprints of some hot
// charts and miss others.
func (d *dataset) makeWritePool(rng *rand.Rand, base map[string]struct{}) []triple {
	phils, scis, cities := d.facts.Philosophers, d.facts.Scientists, d.typeCounts[ont("City")]
	seen := map[string]struct{}{}
	pool := make([]triple, 0, writePoolSize)
	// The try bound ends the loop at smoke scales, where fewer distinct
	// pairs exist than the pool asks for.
	for tries := 0; len(pool) < writePoolSize && tries < 20*writePoolSize; tries++ {
		var t triple
		if len(pool)%2 == 0 {
			t = triple{res(fmt.Sprintf("Philosopher_%d", rng.Intn(phils))), influencedBy, res(fmt.Sprintf("Scientist_%d", rng.Intn(scis)))}
		} else {
			t = triple{res(fmt.Sprintf("Scientist_%d", rng.Intn(scis))), birthPlace, res(fmt.Sprintf("City_%d", rng.Intn(cities)))}
		}
		key := t.S + "|" + t.O
		if _, dup := seen[key]; dup {
			continue
		}
		if _, dup := base[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		pool = append(pool, t)
	}
	return pool
}

// makeWALSeed draws the prior writes a mixed_rw boot replays: citation
// links between scientists, a predicate the base data does not use.
func (d *dataset) makeWALSeed(rng *rand.Rand) []triple {
	scis := d.facts.Scientists
	seen := map[[2]int]struct{}{}
	out := make([]triple, 0, walSeedRecords)
	for tries := 0; len(out) < walSeedRecords && tries < 20*walSeedRecords; tries++ {
		a, b := rng.Intn(scis), rng.Intn(scis)
		if _, dup := seen[[2]int{a, b}]; dup || a == b {
			continue
		}
		seen[[2]int{a, b}] = struct{}{}
		out = append(out, triple{res(fmt.Sprintf("Scientist_%d", a)), cites, res(fmt.Sprintf("Scientist_%d", b))})
	}
	return out
}

// snapshotBytes is the size of the snapshot file (0 when none was written).
func (d *dataset) snapshotBytes() int64 {
	fi, err := os.Stat(d.snap)
	if err != nil {
		return 0
	}
	return fi.Size()
}
