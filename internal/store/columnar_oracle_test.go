package store

import (
	"fmt"
	"reflect"
	"slices"

	"elinda/internal/rdf"
)

// This file keeps the base build the bulk load used before its
// permutations were derived from one sort, as the oracle for
// buildColumnar, and exports two test-only hooks so the external test
// package (which may import datagen) can drive it.

// oracleColumnar builds the three permutation indexes of a
// duplicate-free batch with one independent sort each: packed uint64
// keys when every ID fits packBits, comparator sorts otherwise.
func oracleColumnar(log []rdf.EncodedTriple) *columnar {
	packed := maxIDIn(log) < packMax
	build := func(cmp func(x, y rdf.EncodedTriple) int, key func(rdf.EncodedTriple) (a, b, c rdf.ID)) permIndex {
		pb := newPermBuilder(len(log))
		if !packed {
			sorted := slices.Clone(log)
			slices.SortFunc(sorted, cmp)
			for _, e := range sorted {
				pb.add(key(e))
			}
			return pb.finish()
		}
		keys := make([]uint64, len(log))
		for i, e := range log {
			a, b, c := key(e)
			keys[i] = uint64(a)<<(2*packBits) | uint64(b)<<packBits | uint64(c)
		}
		slices.Sort(keys)
		for _, k := range keys {
			pb.add(rdf.ID(k>>(2*packBits)), rdf.ID(k>>packBits)&rdf.ID(packMask), rdf.ID(k)&rdf.ID(packMask))
		}
		return pb.finish()
	}
	col := &columnar{n: len(log), spo: build(cmpSPO, keySPO), pos: build(cmpPOS, keyPOS), osp: build(cmpOSP, keyOSP)}
	col.stats = computePlanStats(col)
	return col
}

// firstOccurrences returns enc's distinct triples in first-occurrence
// order, computed without dedupBatch.
func firstOccurrences(enc []rdf.EncodedTriple) []rdf.EncodedTriple {
	seen := map[rdf.EncodedTriple]bool{}
	var out []rdf.EncodedTriple
	for _, e := range enc {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// BulkBuildMatchesOracle bulk-loads enc into an empty snapshot the way
// Load and LoadStream do (dedupBatch, then applyBatch) and checks the
// result against the three-sort oracle over enc's distinct triples: the
// batch must be those triples in first-occurrence order, and the spo,
// pos and osp indexes and the planner statistics must be equal.
func BulkBuildMatchesOracle(enc []rdf.EncodedTriple) error {
	empty := New(0).Snapshot()
	want := firstOccurrences(enc)
	batch, spo := dedupBatch(empty, slices.Clone(enc))
	if !slices.Equal(batch, want) {
		return fmt.Errorf("dedupBatch kept %d triples, want the %d distinct ones in first-occurrence order", len(batch), len(want))
	}
	got, oracle := applyBatch(empty, batch, spo).base, oracleColumnar(want)
	for _, perm := range []struct {
		name      string
		got, want *permIndex
	}{{"spo", &got.spo, &oracle.spo}, {"pos", &got.pos, &oracle.pos}, {"osp", &got.osp, &oracle.osp}} {
		if !reflect.DeepEqual(perm.got, perm.want) {
			return fmt.Errorf("%s index differs from the sorted oracle", perm.name)
		}
	}
	if got.n != oracle.n || !reflect.DeepEqual(got.stats, oracle.stats) {
		return fmt.Errorf("PlanStats differ: %+v, oracle %+v", got.stats, oracle.stats)
	}
	return nil
}

// OracleLoad is the reference cold load of ts: terms interned serially
// through Dict.Intern in input order, the distinct triples built into a
// base by the three-sort oracle.
func OracleLoad(ts []rdf.Triple) (*Store, error) {
	s := New(len(ts))
	enc := make([]rdf.EncodedTriple, len(ts))
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		enc[i] = s.dict.Encode(t)
	}
	s.dict.PublishReads()
	batch := firstOccurrences(enc)
	next := *s.snap.Load()
	next.generation += uint64(len(batch))
	next.base = oracleColumnar(batch)
	s.snap.Store(&next)
	return s, nil
}
