package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"elinda/internal/rdf"
	"elinda/internal/vfs"
)

func tri(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)),
		P: rdf.NewIRI("http://ex/p"),
		O: rdf.NewLangLiteral(fmt.Sprintf("object %d", i), "en"),
	}
}

func mustOpen(t *testing.T, fsys vfs.FS, dir string, opts Options) *WAL {
	t.Helper()
	opts.FS = fsys
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// appendInsert and replayInserts spell the op forms (AppendOps,
// ReplayOps) for the insert-only tests below.
func appendInsert(w *WAL, ts ...rdf.Triple) error {
	ops := make([]rdf.TripleOp, len(ts))
	for i, t := range ts {
		ops[i] = rdf.Insert(t)
	}
	return w.AppendOps(ops)
}

func replayInserts(w *WAL, fn func(rdf.Triple) error) (int, error) {
	return w.ReplayOps(func(op rdf.TripleOp) error { return fn(op.Triple) })
}

func replayAll(t *testing.T, fsys vfs.FS, dir string) []rdf.Triple {
	t.Helper()
	w := mustOpen(t, fsys, dir, Options{})
	defer w.Close()
	var got []rdf.Triple
	if _, err := replayInserts(w, func(tr rdf.Triple) error {
		got = append(got, tr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{Policy: SyncAlways})
	var want []rdf.Triple
	for i := 0; i < 25; i++ {
		tr := tri(i)
		if err := appendInsert(w, tr); err != nil {
			t.Fatal(err)
		}
		want = append(want, tr)
	}
	// Mixed-shape terms: typed literal, blank node, empty-string literal.
	extra := []rdf.Triple{
		{S: rdf.NewBlank("b1"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")},
		{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("")},
	}
	if err := appendInsert(w, extra...); err != nil {
		t.Fatal(err)
	}
	want = append(want, extra...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, m, "wal")
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestReplaySurvivesCrashWithoutClose: with SyncAlways every acknowledged
// append survives a power cut even though Close never ran.
func TestReplaySurvivesCrashWithoutClose(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{Policy: SyncAlways})
	for i := 0; i < 10; i++ {
		if err := appendInsert(w, tri(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the process dies here.
	got := replayAll(t, m.Crashed(), "wal")
	if len(got) != 10 {
		t.Fatalf("recovered %d of 10 acknowledged records", len(got))
	}
}

// TestTornTailTruncated: garbage after the valid records must not fail
// replay and must not produce extra triples.
func TestTornTailTruncated(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{})
	for i := 0; i < 5; i++ {
		if err := appendInsert(w, tri(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	seg := filepath.Join("wal", segName(1))
	data, err := m.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"half header":     append(append([]byte(nil), data...), 0x03, 0x00),
		"header no body":  append(append([]byte(nil), data...), 0x10, 0, 0, 0, 1, 2, 3, 4),
		"bad crc":         append(append([]byte(nil), data...), 5, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'h', 'e', 'l', 'l', 'o'),
		"huge length":     append(append([]byte(nil), data...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0),
		"zero length":     append(append([]byte(nil), data...), 0, 0, 0, 0, 0, 0, 0, 0),
		"flipped payload": flipLastByte(data),
	}
	for name, torn := range cases {
		m2 := vfs.NewMem()
		m2.WriteFile(seg, torn)
		got := replayAll(t, m2, "wal")
		want := 5
		if name == "flipped payload" {
			want = 4 // the final record itself is the corrupt one
		}
		if len(got) != want {
			t.Errorf("%s: replayed %d records, want %d", name, len(got), want)
		}
	}
}

func flipLastByte(data []byte) []byte {
	b := append([]byte(nil), data...)
	b[len(b)-1] ^= 0xff
	return b
}

// TestTornSegmentDoesNotHideLaterSegments: corruption in a sealed
// segment stops that segment only; later segments still replay. (The
// writer never produces this shape for acknowledged data — sealed
// segments are synced — but replay must stay robust to it.)
func TestTornSegmentDoesNotHideLaterSegments(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{})
	if err := appendInsert(w, tri(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Cut(); err != nil {
		t.Fatal(err)
	}
	if err := appendInsert(w, tri(1)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Corrupt segment 1's record; segment 2 must still replay.
	seg1 := filepath.Join("wal", segName(1))
	data, err := m.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	m.WriteFile(seg1, flipLastByte(data))
	got := replayAll(t, m, "wal")
	if len(got) != 1 || got[0] != tri(1) {
		t.Fatalf("replay across torn segment: %+v", got)
	}
	// A fully-garbage segment (bad magic) is skipped too.
	m.WriteFile(seg1, []byte("not a wal segment"))
	if got := replayAll(t, m, "wal"); len(got) != 1 {
		t.Fatalf("bad-magic segment not skipped: %d records", len(got))
	}
}

func TestSegmentRotationBySize(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		if err := appendInsert(w, tri(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, err := listSegments(m, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation at 256B segments, got %d segments", len(segs))
	}
	if got := replayAll(t, m, "wal"); len(got) != 20 {
		t.Fatalf("replay across %d segments: %d of 20", len(segs), len(got))
	}
	if st := w.Stats(); st.Rotations != uint64(len(segs)) || st.Appends != 20 {
		t.Fatalf("stats %+v, want %d rotations / 20 appends", st, len(segs))
	}
}

// TestReopenStartsFreshSegment: a reopened WAL never appends into a
// possibly-torn old segment.
func TestReopenStartsFreshSegment(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{})
	if err := appendInsert(w, tri(0)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2 := mustOpen(t, m, "wal", Options{})
	if _, err := replayInserts(w2, func(rdf.Triple) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := appendInsert(w2, tri(1)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	segs, err := listSegments(m, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0] != 1 || segs[1] != 2 {
		t.Fatalf("segments after reopen: %v, want [1 2]", segs)
	}
	if got := replayAll(t, m, "wal"); len(got) != 2 {
		t.Fatalf("replay after reopen: %d records", len(got))
	}
}

func TestCutAndTruncate(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{})
	for i := 0; i < 3; i++ {
		if err := appendInsert(w, tri(i)); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := w.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if err := appendInsert(w, tri(3)); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Only the post-cut record remains.
	if got := replayAll(t, m, "wal"); len(got) != 1 || got[0] != tri(3) {
		t.Fatalf("after truncate: %+v", got)
	}
	// A crash right after truncation sees the same state (removal was
	// made durable by SyncDir).
	if got := replayAll(t, m.Crashed(), "wal"); len(got) != 1 {
		t.Fatalf("truncation not durable: %d records", len(got))
	}
}

// TestCutOnEmptyEpoch: Cut with nothing appended returns a boundary that
// truncates all existing segments and keeps none.
func TestCutOnEmptyEpoch(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{})
	if err := appendInsert(w, tri(0)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2 := mustOpen(t, m, "wal", Options{})
	if _, err := replayInserts(w2, func(rdf.Triple) error { return nil }); err != nil {
		t.Fatal(err)
	}
	cut, err := w2.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if segs, _ := listSegments(m, "wal"); len(segs) != 0 {
		t.Fatalf("segments after empty-epoch truncate: %v", segs)
	}
}

// TestAppendFailureRotates: after a failed append the WAL abandons the
// torn segment; the next append lands in a fresh one and replay sees
// every acknowledged record exactly once.
func TestAppendFailureRotates(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{Policy: SyncAlways})
	if err := appendInsert(w, tri(0)); err != nil {
		t.Fatal(err)
	}
	m.InjectFault(m.Ops(), vfs.FaultShortWrite)
	if err := appendInsert(w, tri(1)); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("append during fault: %v", err)
	}
	if err := appendInsert(w, tri(2)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got := replayAll(t, m, "wal")
	if len(got) != 2 || got[0] != tri(0) || got[1] != tri(2) {
		t.Fatalf("after torn append: %+v", got)
	}
}

func TestReplayAfterAppendRejected(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{})
	defer w.Close()
	if err := appendInsert(w, tri(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := replayInserts(w, func(rdf.Triple) error { return nil }); err == nil {
		t.Fatal("Replay after Append should fail")
	}
}

func TestReplayCallbackError(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{})
	for i := 0; i < 5; i++ {
		if err := appendInsert(w, tri(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	w2 := mustOpen(t, m, "wal", Options{})
	defer w2.Close()
	boom := errors.New("boom")
	n := 0
	applied, err := replayInserts(w2, func(rdf.Triple) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || applied != 2 {
		t.Fatalf("callback error: applied=%d err=%v", applied, err)
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{Policy: SyncInterval, Interval: 5 * time.Millisecond})
	if err := appendInsert(w, tri(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := replayAll(t, m.Crashed(), "wal"); len(got) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval flusher never synced the record")
		}
		time.Sleep(2 * time.Millisecond)
	}
	w.Close()
}

// TestSyncOffCloseDurable: even with sync off, Close seals the log.
func TestSyncOffCloseDurable(t *testing.T) {
	m := vfs.NewMem()
	w := mustOpen(t, m, "wal", Options{Policy: SyncOff})
	for i := 0; i < 4; i++ {
		if err := appendInsert(w, tri(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, m.Crashed(), "wal"); len(got) != 4 {
		t.Fatalf("Close under SyncOff lost records: %d of 4", len(got))
	}
	if err := appendInsert(w, tri(9)); err == nil {
		t.Fatal("append after Close should fail")
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	m := vfs.NewMem()
	if err := m.MkdirAll("wal"); err != nil {
		t.Fatal(err)
	}
	m.WriteFile("wal/kb.snap.tmp", []byte("stale half-written snapshot"))
	w := mustOpen(t, m, "wal", Options{})
	w.Close()
	names, err := m.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "kb.snap.tmp" {
			t.Fatal("Open left the stale temp file behind")
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"off", SyncOff}} {
		got, err := ParseSyncPolicy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Fatalf("round trip %q -> %q", c.in, got.String())
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestSegNameRoundTrip(t *testing.T) {
	for _, idx := range []uint64{1, 42, 1 << 40} {
		got, ok := parseSegName(segName(idx))
		if !ok || got != idx {
			t.Fatalf("parseSegName(segName(%d)) = %d, %v", idx, got, ok)
		}
	}
	for _, bad := range []string{"wal-xyz.log", "kb.snap", "wal-0000000000000001.tmp", ""} {
		if _, ok := parseSegName(bad); ok {
			t.Fatalf("parseSegName(%q) accepted", bad)
		}
	}
}

// TestOSBackend runs a round trip against the real filesystem.
func TestOSBackend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w := mustOpen(t, vfs.OS, dir, Options{Policy: SyncAlways})
	for i := 0; i < 8; i++ {
		if err := appendInsert(w, tri(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, vfs.OS, dir); len(got) != 8 {
		t.Fatalf("OS round trip: %d of 8", len(got))
	}
}
