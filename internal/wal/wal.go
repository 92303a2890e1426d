// Package wal implements eLinda's write-ahead log: the durability gap
// between binary snapshots (PR 5). Every triple insertion is appended to
// an on-disk, CRC-checked record stream before the store acknowledges
// it, so a crash between snapshots loses nothing the client was told
// succeeded. Recovery replays the log on top of the last snapshot;
// replay is idempotent (duplicate inserts no-op in the store), which is
// what lets the snapshot save truncate the log lazily — segments are
// removed only after the new snapshot is durably published, and a crash
// anywhere in between merely replays a few extra records.
//
// Layout: the log is a directory of segment files
//
//	wal-0000000000000001.log, wal-0000000000000002.log, ...
//
// each starting with an 8-byte magic ("ELINDWL" + version byte) and
// holding length-prefixed records:
//
//	u32  payload length (little-endian)
//	u32  CRC-32 (IEEE) of the payload
//	[..] payload: record kind byte + the term-level triple
//
// Records carry term-level triples (not dictionary IDs): IDs are
// assigned by the in-memory dictionary at replay time, so the log stays
// valid across snapshots, compactions and dictionary rebuilds.
//
// Torn tails are expected, not fatal: a power cut can leave a partial
// record at the end of the active segment, and a failed append leaves a
// partial record mid-directory (the writer never appends to a segment
// after a failed write — it rotates). Replay therefore stops a segment
// at the first bad record and continues with the next segment; full
// (rotated) segments are always synced before a newer segment is
// created, so the valid records always form a prefix of the
// acknowledged write sequence.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"elinda/internal/rdf"
	"elinda/internal/vfs"
)

const (
	// segMagic opens every segment file; the final byte is the format
	// version, bumped on incompatible changes. Version 2 added delete
	// records (recDel); version-1 segments hold only insertions and
	// still replay — a v1 segment claiming a delete record is treated
	// as corruption.
	segMagic   = "ELINDWL\x02"
	segMagicV1 = "ELINDWL\x01"
	// segPrefix/segSuffix frame segment file names; the 16 hex digits in
	// between are the segment index, so lexicographic order is replay
	// order.
	segPrefix = "wal-"
	segSuffix = ".log"
	// maxRecordBytes bounds a single record payload; anything larger in
	// the file is corruption, not data (a triple of three multi-megabyte
	// terms has no business in the KB).
	maxRecordBytes = 1 << 24

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 64 << 20
	// DefaultSyncInterval is the flush cadence for SyncInterval when
	// Options leaves Interval zero.
	DefaultSyncInterval = 100 * time.Millisecond
)

// Record kinds: one triple insertion (since v1) or deletion (since v2).
const (
	recAdd = 1
	recDel = 2
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged write is
	// durable. This is the policy the crash matrix proves exact recovery
	// for, and the default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer (Options.Interval): a crash loses
	// at most the last interval of acknowledged writes.
	SyncInterval
	// SyncOff never fsyncs on the append path (rotation and Close still
	// sync): fastest, bounded loss of the active segment's tail.
	SyncOff
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -wal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or off)", s)
	}
}

// Options configures a WAL.
type Options struct {
	// FS is the filesystem seam (nil = vfs.OS). Tests inject vfs.Mem
	// here to run the crash matrix.
	FS vfs.FS
	// Policy selects append durability (default SyncAlways).
	Policy SyncPolicy
	// Interval is the SyncInterval flush cadence (0 = DefaultSyncInterval).
	Interval time.Duration
	// SegmentBytes is the rotation threshold (0 = DefaultSegmentBytes).
	SegmentBytes int64
}

// Stats counts WAL activity for the metrics endpoint and the bench
// harness.
type Stats struct {
	// Appends is the number of records acknowledged.
	Appends uint64 `json:"appends"`
	// Syncs is the number of fsync calls issued on segment files.
	Syncs uint64 `json:"syncs"`
	// Rotations counts segment rollovers (including snapshot cuts).
	Rotations uint64 `json:"rotations"`
	// ActiveSegment is the index of the segment currently appended to
	// (0 before the first append).
	ActiveSegment uint64 `json:"active_segment"`
	// ActiveBytes is the size of the active segment.
	ActiveBytes int64 `json:"active_bytes"`
	// Checkpoints counts TruncateBefore calls — one per durably
	// published snapshot that folded this log's records in.
	Checkpoints uint64 `json:"checkpoints"`
	// LastCheckpointSegment is the cut boundary of the most recent
	// checkpoint: every segment below it has been folded into a snapshot
	// and removed. Together with ActiveSegment it bounds the write-side
	// lag: segments in [LastCheckpointSegment, ActiveSegment] hold
	// records no snapshot covers yet.
	LastCheckpointSegment uint64 `json:"last_checkpoint_segment"`
	// ReplayedRecords and ReplayDuration describe the boot-time recovery
	// pass (zero when the process started from a clean checkpoint).
	ReplayedRecords uint64        `json:"replayed_records"`
	ReplayDuration  time.Duration `json:"replay_ns"`
}

// WAL is an append-only, segmented, CRC-checked triple log. All methods
// are safe for concurrent use; appends serialize internally.
type WAL struct {
	fs   vfs.FS
	dir  string
	opts Options

	mu         sync.Mutex
	active     vfs.File
	activeIdx  uint64
	activeSize int64
	nextIdx    uint64
	// broken marks the active segment after a failed or partial append:
	// its tail may hold a torn record, so the next append rotates to a
	// fresh segment instead of writing after garbage.
	broken   bool
	dirty    bool
	lastSync time.Time
	replayed bool
	closed   bool
	stats    Stats

	stopFlush chan struct{}
	flushDone chan struct{}
}

// Open prepares dir as a WAL directory: creates it if needed, sweeps
// stale *.tmp files, and indexes the existing segments for ReplayOps. New
// appends go to a fresh segment created lazily on the first AppendOps, so
// Open never writes into files a crash may have torn.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultSyncInterval
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", dir, err)
	}
	if _, err := vfs.SweepTemp(opts.FS, dir); err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", dir, err)
	}
	segs, err := listSegments(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{fs: opts.FS, dir: dir, opts: opts, nextIdx: 1}
	if n := len(segs); n > 0 {
		w.nextIdx = segs[n-1] + 1
	}
	if opts.Policy == SyncInterval {
		w.stopFlush = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(fsys vfs.FS, dir string) ([]uint64, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var segs []uint64
	for _, name := range names {
		idx, ok := parseSegName(name)
		if ok {
			segs = append(segs, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

func segName(idx uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, idx, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+16+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var idx uint64
	if _, err := fmt.Sscanf(name[len(segPrefix):len(segPrefix)+16], "%016x", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

// Dir returns the WAL directory.
func (w *WAL) Dir() string { return w.dir }

// Stats returns a snapshot of the activity counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.ActiveSegment = w.activeIdx
	s.ActiveBytes = w.activeSize
	return s
}

// flushLoop is the SyncInterval background flusher.
func (w *WAL) flushLoop() {
	defer close(w.flushDone)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stopFlush:
			return
		case <-t.C:
			w.mu.Lock()
			if w.dirty && w.active != nil && !w.broken {
				w.syncActiveLocked()
			}
			w.mu.Unlock()
		}
	}
}

// syncActiveLocked fsyncs the active segment; callers hold mu.
func (w *WAL) syncActiveLocked() error {
	w.stats.Syncs++
	if err := w.active.Sync(); err != nil {
		w.broken = true
		return fmt.Errorf("wal: syncing %s: %w", segName(w.activeIdx), err)
	}
	w.dirty = false
	w.lastSync = time.Now()
	return nil
}

// rotateLocked seals the active segment (sync + close) and opens the
// next one. On any failure the WAL stays on the old (possibly broken)
// segment and the error propagates — an append that cannot reach a
// clean segment must not acknowledge.
func (w *WAL) rotateLocked() error {
	if w.active != nil {
		// Seal the outgoing segment before a newer one can exist: full
		// segments are always durable, so only the newest segment can
		// have a torn or missing tail — that is what makes recovery a
		// prefix of the acknowledged sequence.
		//
		// A broken segment is sealed only under SyncOff. There, every
		// complete record was acknowledged (appends don't sync, so a
		// write either fully succeeded and acked or left a torn CRC-dead
		// tail), and the segment holds acked records no append ever
		// synced — sealing is required and safe. Under syncing policies
		// the opposite holds on both counts: every acked record already
		// reached disk with its own append, and the segment may end in a
		// complete record whose fsync failed — written, valid, but
		// reported failed to the client. Syncing now would make that
		// phantom write durable, so the segment is abandoned unsynced.
		if !w.broken || w.opts.Policy == SyncOff {
			if err := w.syncActiveLocked(); err != nil {
				return err
			}
		}
		w.active.Close()
		w.active = nil
		w.activeSize = 0
	}
	name := filepath.Join(w.dir, segName(w.nextIdx))
	f, err := w.fs.Create(name)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", name, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing %s header: %w", name, err)
	}
	// The segment's directory entry must be durable before any record in
	// it is acknowledged; one directory sync per rotation is cheap.
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing %s: %w", w.dir, err)
	}
	w.active = f
	w.activeIdx = w.nextIdx
	w.nextIdx++
	w.activeSize = int64(len(segMagic))
	w.broken = false
	w.dirty = true // the magic is unsynced until the first record syncs
	w.stats.Rotations++
	return nil
}

// AppendOps logs a batch of mutations (insertions and deletions) as
// consecutive records with one durability point at the end: when it
// returns nil the records are as durable as the sync policy promises —
// under SyncAlways on stable storage after one fsync for the whole batch,
// which is what makes bulk loads and multi-op update requests affordable.
//
// Failure semantics are per-batch, not per-record: on error none of the
// batch is acknowledged, but (like a timed-out commit) the outcome on
// disk is unresolved — a torn batch write can leave a prefix of the
// batch as complete records, and under SyncOff segment sealing may later
// make that prefix durable. Single-record appends do not have this
// ambiguity; callers that need the strict recovered-equals-prefix-of-
// acknowledged guarantee after an append error should treat a failed
// batch as "state unknown" and re-check after recovery.
func (w *WAL) AppendOps(ops []rdf.TripleOp) error {
	if len(ops) == 0 {
		return nil
	}
	var buf []byte
	for _, op := range ops {
		buf = appendRecord(buf, op)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("wal: append on closed log")
	}
	w.replayed = true // appending forecloses ReplayOps
	if w.active == nil || w.broken || w.activeSize >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := w.active.Write(buf)
	w.activeSize += int64(n)
	if err != nil || n != len(buf) {
		w.broken = true
		if err == nil {
			err = fmt.Errorf("short write (%d of %d bytes)", n, len(buf))
		}
		return fmt.Errorf("wal: appending to %s: %w", segName(w.activeIdx), err)
	}
	w.dirty = true
	switch w.opts.Policy {
	case SyncAlways:
		if err := w.syncActiveLocked(); err != nil {
			return err
		}
	case SyncInterval:
		if time.Since(w.lastSync) >= w.opts.Interval {
			if err := w.syncActiveLocked(); err != nil {
				return err
			}
		}
	}
	w.stats.Appends += uint64(len(ops))
	return nil
}

// Sync forces the active segment to stable storage regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active == nil || !w.dirty {
		return nil
	}
	return w.syncActiveLocked()
}

// Cut seals the active segment and returns the index of the first
// segment of the new epoch: every record appended before the Cut lives
// in a segment with index < cut, every later one in index >= cut. The
// snapshot saver calls Cut under the store's writer lock, writes the
// snapshot, and hands cut to TruncateBefore once the snapshot is
// durably published.
func (w *WAL) Cut() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("wal: cut on closed log")
	}
	if w.active == nil {
		// Nothing appended this epoch: the boundary is wherever the next
		// segment would start.
		return w.nextIdx, nil
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.activeIdx, nil
}

// TruncateBefore removes every segment with index < cut — called after
// the snapshot covering those records is durably published. Removal is
// safe to crash anywhere: replay of a not-yet-removed segment is
// idempotent against the snapshot.
func (w *WAL) TruncateBefore(cut uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, err := listSegments(w.fs, w.dir)
	if err != nil {
		return err
	}
	w.stats.Checkpoints++
	w.stats.LastCheckpointSegment = cut
	removed := false
	for _, idx := range segs {
		if idx >= cut || (w.active != nil && idx == w.activeIdx) {
			continue
		}
		if err := w.fs.Remove(filepath.Join(w.dir, segName(idx))); err != nil {
			return fmt.Errorf("wal: truncating %s: %w", segName(idx), err)
		}
		removed = true
	}
	if removed {
		if err := w.fs.SyncDir(w.dir); err != nil {
			return fmt.Errorf("wal: truncating %s: %w", w.dir, err)
		}
	}
	return nil
}

// Close syncs and closes the active segment and stops the background
// flusher. The WAL rejects appends afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	var err error
	if w.active != nil {
		// Same sealing rule as rotation: see rotateLocked.
		if w.dirty && (!w.broken || w.opts.Policy == SyncOff) {
			err = w.syncActiveLocked()
		}
		w.active.Close()
		w.active = nil
	}
	stop := w.stopFlush
	done := w.flushDone
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// --- record encoding ---

// appendRecord encodes one mutation record (header + payload) onto b.
func appendRecord(b []byte, op rdf.TripleOp) []byte {
	payload := make([]byte, 0, 64)
	if op.Del {
		payload = append(payload, recDel)
	} else {
		payload = append(payload, recAdd)
	}
	payload = appendTerm(payload, op.Triple.S)
	payload = appendTerm(payload, op.Triple.P)
	payload = appendTerm(payload, op.Triple.O)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	b = append(b, hdr[:]...)
	return append(b, payload...)
}

// appendTerm encodes one term: kind byte, then the three length-prefixed
// string columns.
func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	for _, s := range []string{t.Value, t.Lang, t.Datatype} {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// decodeRecord decodes one payload back to its mutation op. maxKind is
// the highest record kind the segment's format version allows (recAdd
// for v1 segments, recDel for v2). Errors mean corruption: replay
// treats them as a torn record.
func decodeRecord(payload []byte, maxKind byte) (rdf.TripleOp, error) {
	if len(payload) == 0 || payload[0] < recAdd || payload[0] > maxKind {
		return rdf.TripleOp{}, fmt.Errorf("wal: unknown record kind")
	}
	op := rdf.TripleOp{Del: payload[0] == recDel}
	rest := payload[1:]
	var err error
	if op.Triple.S, rest, err = decodeTerm(rest); err != nil {
		return rdf.TripleOp{}, err
	}
	if op.Triple.P, rest, err = decodeTerm(rest); err != nil {
		return rdf.TripleOp{}, err
	}
	if op.Triple.O, rest, err = decodeTerm(rest); err != nil {
		return rdf.TripleOp{}, err
	}
	if len(rest) != 0 {
		return rdf.TripleOp{}, fmt.Errorf("wal: %d trailing bytes in record", len(rest))
	}
	if err := op.Triple.Validate(); err != nil {
		return rdf.TripleOp{}, err
	}
	return op, nil
}

func decodeTerm(b []byte) (rdf.Term, []byte, error) {
	if len(b) == 0 {
		return rdf.Term{}, nil, fmt.Errorf("wal: truncated term")
	}
	kind := rdf.TermKind(b[0])
	if kind > rdf.Blank {
		return rdf.Term{}, nil, fmt.Errorf("wal: unknown term kind %d", b[0])
	}
	b = b[1:]
	var cols [3]string
	for i := range cols {
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > uint64(len(b)-sz) {
			return rdf.Term{}, nil, fmt.Errorf("wal: truncated term column")
		}
		b = b[sz:]
		cols[i] = string(b[:n])
		b = b[n:]
	}
	return rdf.Term{Kind: kind, Value: cols[0], Lang: cols[1], Datatype: cols[2]}, b, nil
}
