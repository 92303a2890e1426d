package main

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// smokeScale is the smallest dataset on which every planted fact the
// preflight checks look for (the Food birth places among them) exists.
const smokeScale = 300

// TestScriptHashFollowsSeed: the dataset, the parameter pools and the
// request order all come from the seed, so equal seeds give equal script
// hashes and different seeds different ones, on every workload.
func TestScriptHashFollowsSeed(t *testing.T) {
	hashes := func(seed int64) map[string]string {
		out := map[string]string{}
		for _, w := range workloads() {
			d, err := makeDataset(t.TempDir(), seed, smokeScale, needs{})
			if err != nil {
				t.Fatal(err)
			}
			out[w.name] = scriptHash(d, w.scripts(d, clients))
		}
		return out
	}
	a, again, b := hashes(1), hashes(1), hashes(2)
	for name, h := range a {
		if again[name] != h {
			t.Errorf("%s: seed 1 hashed to %s and then to %s", name, h, again[name])
		}
		if b[name] == h {
			t.Errorf("%s: seeds 1 and 2 share the script hash %s", name, h)
		}
	}
}

// TestSmoke runs every workload end to end at a tier-1 size: build the
// server, boot it, preflight, closed loop, /metrics assertions, the
// SIGKILL durability check, and the traced in-process replay with all
// layer probes. It proves the harness and its seams still compile and
// run; the numbers mean nothing at this size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	// Child servers carry Pdeathsig, which is tied to the forking thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	env, err := newEnvironment(root, filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer env.cleanup()
	opt := options{seed: 1, scale: smokeScale, trace: true, boots: 1, warmup: 100 * time.Millisecond, window: 400 * time.Millisecond}
	for _, w := range workloads() {
		rep, err := runWorkload(env, w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Result.Correct {
			t.Errorf("%s: not correct: %v", w.name, rep.Errors)
		}
		if got, want := len(rep.Result.Metrics), len(env.spec.PerLayer); got != want {
			t.Errorf("%s: %d per-layer metrics reported, BENCHMARK.json lists %d", w.name, got, want)
		}
		if rep.Info["op_p50_ms"] <= 0 || rep.Info["setup_s"] <= 0 {
			t.Errorf("%s: end-to-end numbers missing from the traced run: %v", w.name, rep.Info)
		}
	}
}
