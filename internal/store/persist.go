package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"elinda/internal/rdf"
	"elinda/internal/vfs"
)

// This file implements durable binary snapshots: a versioned little-endian
// dump of the dictionary arena and the three columnar permutation indexes
// — the store's whole triple set — exactly as they sit in memory. A warm
// restart therefore skips parsing, interning AND index sorting — the load
// path is bulk []ID reads plus structural validation. Files are written
// atomically (temp + rename) and carry a CRC-32 of the entire payload; a
// corrupt, truncated or wrong-version file fails loudly and never yields
// a half-loaded store.
//
// Layout (all integers little-endian), four sections after the header:
//
//	[8]  magic "ELINDSN\x04" (version byte last)
//	u64  generation
//	u32  nTerms, nTriples
//	u32  typeID, subClassID, labelID
//	dict: [nTerms]u8 kinds, then 3 string columns (value, lang, datatype),
//	      each: [nTerms]u32 lengths, u64 blobLen, blob bytes
//	3 × permutation index (SPO, POS, OSP), each 5 arrays prefixed with a
//	      u32 count: aKeys, aOff, bKeys, bOff, c
//	planner statistics (see planstats.go):
//	      u32 nPreds, then nPreds × (u32 pred, count, distinctS, distinctO)
//	u32  CRC-32 (IEEE) of every preceding byte
//
// The reader accepts exactly the version it writes: a file of any other
// version (1 had no statistics section; 2 carried an insertion-order copy
// of the triples between the dictionary and the permutations; 3 appended
// characteristic sets to the statistics) is rejected by name and must be
// rebuilt from its source data.

const (
	snapshotMagic   = "ELINDSN\x04" // bump the final byte on format changes
	snapshotMaxSane = 1 << 31       // upper bound for any count field
)

// --- writing ---

// crcWriter tees everything through a CRC-32 accumulator.
type crcWriter struct {
	w   *bufio.Writer
	sum uint32
}

func (cw *crcWriter) write(p []byte) error {
	cw.sum = crc32.Update(cw.sum, crc32.IEEETable, p)
	_, err := cw.w.Write(p)
	return err
}

func (cw *crcWriter) writeU32(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return cw.write(b[:])
}

func (cw *crcWriter) writeU64(v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return cw.write(b[:])
}

// writeU32Slice bulk-encodes a 32-bit integer array (rdf.ID or uint32)
// through a reused scratch buffer.
func writeU32Slice[T ~uint32](cw *crcWriter, vs []T, scratch []byte) error {
	for len(vs) > 0 {
		n := len(scratch) / 4
		if n > len(vs) {
			n = len(vs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[4*i:], uint32(vs[i]))
		}
		if err := cw.write(scratch[:4*n]); err != nil {
			return err
		}
		vs = vs[n:]
	}
	return nil
}

// writeCounted writes a u32 element count followed by the array.
func writeCounted[T ~uint32](cw *crcWriter, vs []T, scratch []byte) error {
	if err := cw.writeU32(uint32(len(vs))); err != nil {
		return err
	}
	return writeU32Slice(cw, vs, scratch)
}

// writeString streams a string's bytes through scratch, avoiding the
// []byte(string) allocation a direct write would cost per call.
func (cw *crcWriter) writeString(s string, scratch []byte) error {
	for len(s) > 0 {
		n := copy(scratch, s)
		if err := cw.write(scratch[:n]); err != nil {
			return err
		}
		s = s[n:]
	}
	return nil
}

// WriteSnapshot serializes the store's current snapshot to w. A non-empty
// overlay (recent Adds) is folded into a columnar view first, so the file
// always holds the steady-state layout.
func (s *Store) WriteSnapshot(w io.Writer) error {
	return writeSnapshot(s.Snapshot(), w)
}

// writeSnapshot serializes one pinned snapshot — the savers pin a
// snapshot under writeMu together with the WAL cut point and must write
// exactly that version, not whatever is current by the time the bytes
// flow.
func writeSnapshot(snap *Snapshot, w io.Writer) error {
	if !snap.overlayEmpty() || !snap.tombEmpty() {
		// Fold recent Adds in and drop tombstoned triples: the file always
		// holds the steady-state layout with no masked rows.
		snap = compacted(snap)
	}
	terms := snap.dict.Terms()

	// Refuse to write anything the reader would reject — a snapshot that
	// saves fine but can never load back is worse than no snapshot.
	if len(terms) >= snapshotMaxSane || snap.base.n >= snapshotMaxSane {
		return fmt.Errorf("store: writing snapshot: store exceeds the format's count limits (%d terms, %d triples)", len(terms), snap.base.n)
	}
	var valueBytes uint64
	for _, t := range terms {
		valueBytes += uint64(len(t.Value)) + uint64(len(t.Lang)) + uint64(len(t.Datatype))
	}
	if valueBytes >= snapshotMaxSane {
		return fmt.Errorf("store: writing snapshot: dictionary strings total %d bytes, beyond the format's blob limit", valueBytes)
	}

	cw := &crcWriter{w: bufio.NewWriterSize(w, 1<<20)}
	scratch := make([]byte, 1<<16)
	if err := cw.write([]byte(snapshotMagic)); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	put := func(steps ...func() error) error {
		for _, step := range steps {
			if err := step(); err != nil {
				return fmt.Errorf("store: writing snapshot: %w", err)
			}
		}
		return nil
	}
	if err := put(
		func() error { return cw.writeU64(snap.generation) },
		func() error { return cw.writeU32(uint32(len(terms))) },
		func() error { return cw.writeU32(uint32(snap.base.n)) },
		func() error { return cw.writeU32(uint32(snap.typeID)) },
		func() error { return cw.writeU32(uint32(snap.subClassID)) },
		func() error { return cw.writeU32(uint32(snap.labelID)) },
	); err != nil {
		return err
	}

	// Dictionary: kinds, then the three string columns.
	kinds := scratch[:0]
	for _, t := range terms {
		kinds = append(kinds, byte(t.Kind))
		if len(kinds) == len(scratch) {
			if err := cw.write(kinds); err != nil {
				return fmt.Errorf("store: writing snapshot: %w", err)
			}
			kinds = scratch[:0]
		}
	}
	if err := cw.write(kinds); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	for _, col := range []func(rdf.Term) string{
		func(t rdf.Term) string { return t.Value },
		func(t rdf.Term) string { return t.Lang },
		func(t rdf.Term) string { return t.Datatype },
	} {
		var blobLen uint64
		lens := make([]uint32, len(terms))
		for i, t := range terms {
			lens[i] = uint32(len(col(t)))
			blobLen += uint64(len(col(t)))
		}
		if err := writeU32Slice(cw, lens, scratch); err != nil {
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
		if err := cw.writeU64(blobLen); err != nil {
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
		for _, t := range terms {
			if err := cw.writeString(col(t), scratch); err != nil {
				return fmt.Errorf("store: writing snapshot: %w", err)
			}
		}
	}

	// Columnar permutation indexes (each array prefixed with its count).
	for _, p := range []*permIndex{&snap.base.spo, &snap.base.pos, &snap.base.osp} {
		for _, step := range []func() error{
			func() error { return writeCounted(cw, p.aKeys, scratch) },
			func() error { return writeCounted(cw, p.aOff, scratch) },
			func() error { return writeCounted(cw, p.bKeys, scratch) },
			func() error { return writeCounted(cw, p.bOff, scratch) },
			func() error { return writeCounted(cw, p.c, scratch) },
		} {
			if err := step(); err != nil {
				return fmt.Errorf("store: writing snapshot: %w", err)
			}
		}
	}

	// Planner statistics: a snapshot load reads them instead of
	// recomputing them.
	if err := writePlanStats(cw, snap.base.planStats(), scratch); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}

	// Trailing checksum (not part of its own coverage).
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], cw.sum)
	if _, err := cw.w.Write(b[:]); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := cw.w.Flush(); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	return nil
}

// writePlanStats serializes the planner statistics section; see the
// layout comment at the top of the file.
func writePlanStats(cw *crcWriter, ps *PlanStats, scratch []byte) error {
	flat := make([]uint32, 0, 4*len(ps.Preds))
	for _, st := range ps.Preds {
		flat = append(flat, uint32(st.Pred), st.Count, st.DistinctS, st.DistinctO)
	}
	if err := cw.writeU32(uint32(len(ps.Preds))); err != nil {
		return err
	}
	return writeU32Slice(cw, flat, scratch)
}

// SaveSnapshot writes the snapshot to path atomically on the real
// filesystem; see SaveSnapshotFS.
func (s *Store) SaveSnapshot(path string) error {
	return s.SaveSnapshotFS(vfs.OS, path)
}

// SaveSnapshotFS writes the snapshot to path atomically: the bytes land
// in path+".tmp" in the same directory, synced, and renamed over path
// only after a successful write, so a crash never leaves a torn file at
// path (at worst a stale temp file for the startup sweep).
//
// With a WAL attached the save is also the log's checkpoint: the WAL is
// cut at the pinned snapshot's boundary (under the writer lock, so the
// cut and the snapshot describe the same prefix of acknowledged writes)
// and the segments the snapshot covers are removed only after the
// rename and directory sync both succeed. A crash anywhere in between
// is safe — the old snapshot plus the uncut log, or the new snapshot
// plus a not-yet-truncated log, both replay to the same store because
// replay is idempotent.
func (s *Store) SaveSnapshotFS(fsys vfs.FS, path string) error {
	s.writeMu.Lock()
	w := s.wal
	var cut uint64
	if w != nil {
		var err error
		if cut, err = w.Cut(); err != nil {
			s.writeMu.Unlock()
			return fmt.Errorf("store: saving snapshot: %w", err)
		}
	}
	snap := s.snap.Load()
	s.writeMu.Unlock()

	dir := filepath.Dir(path)
	tmpName := path + vfs.TempSuffix
	tmp, err := fsys.Create(tmpName)
	if err != nil {
		return fmt.Errorf("store: saving snapshot: %w", err)
	}
	fail := func(err error) error {
		tmp.Close()
		// Best effort: the startup sweep removes the temp file otherwise.
		_ = fsys.Remove(tmpName)
		return err
	}
	if err := writeSnapshot(snap, tmp); err != nil {
		return fail(err)
	}
	// Flush the data blocks before the rename becomes visible, or a
	// power loss could journal the rename ahead of the contents and
	// leave a torn (CRC-failing) file at path.
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("store: saving snapshot: %w", err))
	}
	if err := tmp.Close(); err != nil {
		_ = fsys.Remove(tmpName)
		return fmt.Errorf("store: saving snapshot: %w", err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		_ = fsys.Remove(tmpName)
		return fmt.Errorf("store: saving snapshot: %w", err)
	}
	// The directory entry must be durable before WAL truncation: if the
	// rename could still roll back, removing the segments it supersedes
	// would lose acknowledged writes.
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("store: saving snapshot: %w", err)
	}
	if w != nil {
		if err := w.TruncateBefore(cut); err != nil {
			return fmt.Errorf("store: saving snapshot: %w", err)
		}
	}
	return nil
}

// --- reading ---

// crcReader verifies the running CRC-32 while decoding.
type crcReader struct {
	r   *bufio.Reader
	sum uint32
}

func (cr *crcReader) read(p []byte) error {
	if _, err := io.ReadFull(cr.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("truncated file")
		}
		return err
	}
	cr.sum = crc32.Update(cr.sum, crc32.IEEETable, p)
	return nil
}

func (cr *crcReader) readU32() (uint32, error) {
	var b [4]byte
	if err := cr.read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (cr *crcReader) readU64() (uint64, error) {
	var b [8]byte
	if err := cr.read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// readU32Slice bulk-reads n 32-bit integers, growing the result
// incrementally so a corrupt count fails on the truncated read instead
// of attempting one giant allocation up front.
func readU32Slice[T ~uint32](cr *crcReader, n int, scratch []byte) ([]T, error) {
	out := make([]T, 0, min(n, 1<<20))
	for len(out) < n {
		k := (n - len(out)) * 4
		if k > len(scratch) {
			k = len(scratch)
		}
		if err := cr.read(scratch[:k]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i += 4 {
			out = append(out, T(binary.LittleEndian.Uint32(scratch[i:])))
		}
	}
	return out, nil
}

// readBlob reads n bytes incrementally (same truncation rationale).
func (cr *crcReader) readBlob(n uint64) ([]byte, error) {
	if n >= snapshotMaxSane {
		return nil, fmt.Errorf("implausible blob size %d", n)
	}
	out := make([]byte, 0, min(int(n), 1<<24))
	var chunk [1 << 16]byte
	for uint64(len(out)) < n {
		k := n - uint64(len(out))
		if k > uint64(len(chunk)) {
			k = uint64(len(chunk))
		}
		if err := cr.read(chunk[:k]); err != nil {
			return nil, err
		}
		out = append(out, chunk[:k]...)
	}
	return out, nil
}

func snapErr(format string, args ...any) error {
	return fmt.Errorf("store: loading snapshot: "+format, args...)
}

// OpenSnapshot loads a store from a binary snapshot file written by
// SaveSnapshot.
func OpenSnapshot(path string) (*Store, error) {
	return OpenSnapshotFS(vfs.OS, path)
}

// OpenSnapshotFS loads a store from a snapshot on the given filesystem.
func OpenSnapshotFS(fsys vfs.FS, path string) (*Store, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: loading snapshot: %w", err)
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// ReadSnapshot decodes a binary snapshot from r into a fully built store.
// Every failure — bad magic, unsupported version, truncation, checksum
// mismatch, or a structural invariant violation — returns an error and no
// store; a snapshot never loads partially.
func ReadSnapshot(r io.Reader) (*Store, error) {
	cr := &crcReader{r: bufio.NewReaderSize(r, 1<<20)}
	scratch := make([]byte, 1<<16)

	magic := make([]byte, len(snapshotMagic))
	if err := cr.read(magic); err != nil {
		return nil, snapErr("%v", err)
	}
	if string(magic[:7]) != snapshotMagic[:7] {
		return nil, snapErr("bad magic %q: not an eLinda snapshot", magic)
	}
	if magic[7] != snapshotMagic[7] {
		return nil, snapErr("unsupported snapshot version %d (this build reads only version %d)", magic[7], snapshotMagic[7])
	}

	generation, err := cr.readU64()
	if err != nil {
		return nil, snapErr("%v", err)
	}
	hdr := make([]uint32, 5)
	for i := range hdr {
		if hdr[i], err = cr.readU32(); err != nil {
			return nil, snapErr("%v", err)
		}
	}
	nTerms, nTriples := int(hdr[0]), int(hdr[1])
	typeID, subClassID, labelID := rdf.ID(hdr[2]), rdf.ID(hdr[3]), rdf.ID(hdr[4])
	if nTerms < 0 || nTerms >= snapshotMaxSane || nTriples < 0 || nTriples >= snapshotMaxSane {
		return nil, snapErr("implausible header counts (terms=%d triples=%d)", nTerms, nTriples)
	}

	// Dictionary columns. Kinds go through the incremental blob reader so
	// a corrupt count fails on the truncated read, never on a giant
	// upfront allocation.
	kinds, err := cr.readBlob(uint64(nTerms))
	if err != nil {
		return nil, snapErr("dictionary kinds: %v", err)
	}
	var cols [3][]string
	for ci := range cols {
		lens, err := readU32Slice[uint32](cr, nTerms, scratch)
		if err != nil {
			return nil, snapErr("dictionary lengths: %v", err)
		}
		blobLen, err := cr.readU64()
		if err != nil {
			return nil, snapErr("dictionary blob: %v", err)
		}
		var sum uint64
		for _, l := range lens {
			sum += uint64(l)
		}
		if sum != blobLen {
			return nil, snapErr("dictionary column %d: lengths sum to %d, blob is %d", ci, sum, blobLen)
		}
		blobBytes, err := cr.readBlob(blobLen)
		if err != nil {
			return nil, snapErr("dictionary blob: %v", err)
		}
		// One backing string for the whole column keeps the loaded
		// dictionary as compact as the file.
		blob := string(blobBytes)
		col := make([]string, nTerms)
		off := 0
		for i, l := range lens {
			col[i] = blob[off : off+int(l)]
			off += int(l)
		}
		cols[ci] = col
	}
	terms := make([]rdf.Term, nTerms)
	for i := range terms {
		if kinds[i] > byte(rdf.Blank) {
			return nil, snapErr("term %d has unknown kind %d", i+1, kinds[i])
		}
		terms[i] = rdf.Term{
			Kind:     rdf.TermKind(kinds[i]),
			Value:    cols[0][i],
			Lang:     cols[1][i],
			Datatype: cols[2][i],
		}
	}
	dict, err := rdf.NewDictFromTerms(terms)
	if err != nil {
		return nil, snapErr("%v", err)
	}

	// Permutation indexes.
	base := &columnar{n: nTriples}
	for pi, p := range []*permIndex{&base.spo, &base.pos, &base.osp} {
		if err := readPerm(cr, p, nTriples, nTerms, scratch); err != nil {
			return nil, snapErr("permutation %d: %v", pi, err)
		}
	}

	if base.stats, err = readPlanStats(cr, base, scratch); err != nil {
		return nil, snapErr("planner statistics: %v", err)
	}

	// Checksum trailer (compare before trusting anything further).
	want := cr.sum
	var tail [4]byte
	if _, err := io.ReadFull(cr.r, tail[:]); err != nil {
		return nil, snapErr("checksum: truncated file")
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, snapErr("checksum mismatch (file %08x, computed %08x): corrupt snapshot", got, want)
	}
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return nil, snapErr("trailing garbage after checksum")
	}

	// Well-known IDs must resolve to the terms the store hardwires.
	for _, chk := range []struct {
		id   rdf.ID
		term rdf.Term
		name string
	}{
		{typeID, rdf.TypeIRI, "rdf:type"},
		{subClassID, rdf.SubClassOfIRI, "rdfs:subClassOf"},
		{labelID, rdf.LabelIRI, "rdfs:label"},
	} {
		if !validSnapID(chk.id, nTerms) {
			return nil, snapErr("%s ID %d outside the dictionary", chk.name, chk.id)
		}
		if dict.Term(chk.id) != chk.term {
			return nil, snapErr("%s ID %d resolves to %s", chk.name, chk.id, dict.Term(chk.id))
		}
	}

	st := &Store{dict: dict, typeID: typeID, subClassID: subClassID, labelID: labelID}
	st.snap.Store(&Snapshot{
		dict:       dict,
		base:       base,
		generation: generation,
		typeID:     typeID,
		subClassID: subClassID,
		labelID:    labelID,
	})
	return st, nil
}

func validSnapID(id rdf.ID, nTerms int) bool {
	return id != rdf.NoID && int(id) <= nTerms
}

// readPerm decodes one permutation index and checks the structural
// invariants the lock-free readers rely on: sorted unique first-level
// keys, monotonically increasing offset arrays with the right lengths,
// and a posting array covering exactly the triple count.
func readPerm(cr *crcReader, p *permIndex, nTriples, nTerms int, scratch []byte) error {
	arrs := make([][]rdf.ID, 2)
	offs := make([][]uint32, 2)
	var c []rdf.ID
	for i := 0; i < 5; i++ {
		n, err := cr.readU32()
		if err != nil {
			return err
		}
		if int(n) >= snapshotMaxSane {
			return fmt.Errorf("implausible array count %d", n)
		}
		switch i {
		case 0, 2: // aKeys, bKeys
			if arrs[i/2], err = readU32Slice[rdf.ID](cr, int(n), scratch); err != nil {
				return err
			}
		case 1, 3: // aOff, bOff
			if offs[i/2], err = readU32Slice[uint32](cr, int(n), scratch); err != nil {
				return err
			}
		default: // c
			if c, err = readU32Slice[rdf.ID](cr, int(n), scratch); err != nil {
				return err
			}
		}
	}
	aKeys, aOff, bKeys, bOff := arrs[0], offs[0], arrs[1], offs[1]
	if len(c) != nTriples {
		return fmt.Errorf("posting array has %d entries, want %d", len(c), nTriples)
	}
	if len(aOff) != len(aKeys)+1 || len(bOff) != len(bKeys)+1 {
		return fmt.Errorf("offset arrays sized %d/%d for %d/%d keys", len(aOff), len(bOff), len(aKeys), len(bKeys))
	}
	if len(aKeys) > 0 && (aOff[0] != 0 || bOff[0] != 0) {
		return fmt.Errorf("offset arrays do not start at zero")
	}
	if len(aOff) > 0 && int(aOff[len(aOff)-1]) != len(bKeys) {
		return fmt.Errorf("first-level offsets end at %d, want %d", aOff[len(aOff)-1], len(bKeys))
	}
	if len(bOff) > 0 && int(bOff[len(bOff)-1]) != len(c) {
		return fmt.Errorf("second-level offsets end at %d, want %d", bOff[len(bOff)-1], len(c))
	}
	for i := 1; i < len(aKeys); i++ {
		if aKeys[i] <= aKeys[i-1] {
			return fmt.Errorf("first-level keys not strictly increasing at %d", i)
		}
	}
	// Offsets must strictly increase: the permCursor relies on every
	// group being non-empty.
	for i := 1; i < len(aOff); i++ {
		if aOff[i] <= aOff[i-1] {
			return fmt.Errorf("empty or decreasing first-level group at %d", i-1)
		}
	}
	for i := 1; i < len(bOff); i++ {
		if bOff[i] <= bOff[i-1] {
			return fmt.Errorf("empty or decreasing second-level group at %d", i-1)
		}
	}
	for _, k := range aKeys {
		if !validSnapID(k, nTerms) {
			return fmt.Errorf("first-level key outside the dictionary")
		}
	}
	for _, k := range bKeys {
		if !validSnapID(k, nTerms) {
			return fmt.Errorf("second-level key outside the dictionary")
		}
	}
	for _, k := range c {
		if !validSnapID(k, nTerms) {
			return fmt.Errorf("posting entry outside the dictionary")
		}
	}
	p.aKeys, p.aOff, p.bKeys, p.bOff, p.c = aKeys, aOff, bKeys, bOff, c
	// Only now, with every key bounded by nTerms, is the dense index's
	// size known to be sane.
	p.aPos = densePositions(aKeys)
	return nil
}

// readPlanStats decodes the planner-statistics section and validates it
// against the already-loaded indexes: the per-predicate rows must agree
// exactly with the POS index (predicate set, triple counts, distinct
// objects are all derivable from its offsets). A file whose statistics
// disagree with its own indexes is corrupt and fails loudly.
func readPlanStats(cr *crcReader, base *columnar, scratch []byte) (*PlanStats, error) {
	ps := &PlanStats{
		Triples:  base.n,
		Subjects: len(base.spo.aKeys),
		Objects:  len(base.osp.aKeys),
	}
	nPreds, err := cr.readU32()
	if err != nil {
		return nil, err
	}
	pos := &base.pos
	if int(nPreds) != len(pos.aKeys) {
		return nil, fmt.Errorf("statistics cover %d predicates, index has %d", nPreds, len(pos.aKeys))
	}
	flat, err := readU32Slice[uint32](cr, 4*int(nPreds), scratch)
	if err != nil {
		return nil, err
	}
	ps.Preds = make([]PredStat, nPreds)
	for i := range ps.Preds {
		st := PredStat{
			Pred:      rdf.ID(flat[4*i]),
			Count:     flat[4*i+1],
			DistinctS: flat[4*i+2],
			DistinctO: flat[4*i+3],
		}
		if st.Pred != pos.aKeys[i] {
			return nil, fmt.Errorf("predicate row %d is %d, index has %d", i, st.Pred, pos.aKeys[i])
		}
		if want := pos.bOff[pos.aOff[i+1]] - pos.bOff[pos.aOff[i]]; st.Count != want {
			return nil, fmt.Errorf("predicate %d count %d disagrees with index (%d)", st.Pred, st.Count, want)
		}
		if want := pos.aOff[i+1] - pos.aOff[i]; st.DistinctO != want {
			return nil, fmt.Errorf("predicate %d distinct objects %d disagrees with index (%d)", st.Pred, st.DistinctO, want)
		}
		if st.DistinctS == 0 || int(st.DistinctS) > ps.Subjects || st.DistinctS > st.Count {
			return nil, fmt.Errorf("predicate %d has implausible distinct subjects %d", st.Pred, st.DistinctS)
		}
		ps.Preds[i] = st
	}
	return ps, nil
}
