// Package journal is the file-backed implementation of the jobs.Journal
// seam: an append-only JSON-lines write-ahead log of job lifecycle records
// (DESIGN.md §11). The paper's Section 6 web system only works if an
// upload survives the service it was uploaded to — with every queued and
// finished job living in the Manager's in-memory table, a restart of
// slj-serve silently dropped user clips mid-analysis. Journaling every
// submission (with its full serializable payload), every state transition
// and every TTL eviction makes the table reconstructible: jobs.New replays
// the log on startup, re-enqueueing interrupted work and restoring
// terminal results with their original timestamps.
//
// Layout on disk: one record per line in the log, the bulk fields kept by
// reference. A submit's payload and a done record's result are written as
// content-addressed blob files in the directory path+".blobs" (file name =
// SHA-256 of the bytes) and the line carries only their hashes, so a
// record is a few hundred bytes however large the clip. Replay reads the
// blobs back and re-checks each hash. The log is at most two files — the
// active segment at the configured path and one sealed segment at
// path+".1". When the active segment outgrows MaxSegmentBytes it is sealed
// (renamed) and a fresh active segment starts; when the dead-record ratio
// (records of evicted jobs) passes CompactRatio, both segments are
// rewritten keeping only live records, and the blobs no live record names
// are unlinked after the rewritten log is in place.
//
// Durability policy: terminal records (done/failed) are always fsynced —
// losing a submit record costs at most an acknowledged id, losing a
// running record nothing, and losing a done record one re-execution, but
// a result served to a client must never evaporate across a crash. A terminal record's result blob is fsynced,
// renamed into place and its directory fsynced before the line naming it
// is written. Payload blobs follow the submit record and are not fsynced:
// a lost payload blob costs at most the pending job, exactly what losing
// the unsynced submit record costs. Sync flushes everything (graceful
// shutdown). A torn final record — the crash arrived mid-write — is
// detected on Open and truncated away, so recovery never trips over a
// half-line.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/obs"
)

// Durability latency histograms feeding the Prometheus export: the append
// covers encode+write (plus any policy fsync/compaction it triggered),
// the fsync histogram isolates the flush+fsync syscall pair — the number
// the ROADMAP's group-commit item needs a baseline for.
var (
	appendSeconds = obs.Default.Histogram("slj_journal_append_seconds",
		"Journal record append time (encode + buffered write + any policy fsync), in seconds.", obs.IOBuckets)
	fsyncSeconds = obs.Default.Histogram("slj_journal_fsync_seconds",
		"Journal flush+fsync time, in seconds.", obs.IOBuckets)
)

// Config parameterises a Journal.
type Config struct {
	// MaxSegmentBytes seals the active segment once it grows past this
	// size; 0 uses DefaultConfig's bound.
	MaxSegmentBytes int64
	// CompactRatio triggers compaction once dead records (those belonging
	// to evicted jobs) make up at least this fraction of all records;
	// 0 uses DefaultConfig's ratio.
	CompactRatio float64
	// CompactMinRecords suppresses compaction below this record count so
	// tiny logs are not endlessly rewritten; 0 uses DefaultConfig's floor.
	CompactMinRecords int
}

// DefaultConfig returns the production policy: terminal fsync on, 64 MiB
// segments, compaction once half the records are dead.
func DefaultConfig() Config {
	return Config{
		MaxSegmentBytes:   64 << 20,
		CompactRatio:      0.5,
		CompactMinRecords: 128,
	}
}

// Journal is a file-backed jobs.Journal. All methods are safe for
// concurrent use, though in practice the owning Manager serialises them.
type Journal struct {
	cfg     Config
	path    string // active segment; the sealed segment is path+".1"
	blobDir string // content-addressed payloads and results, path+".blobs"
	// fsync is the durability syscall: (*os.File).Sync, except in the
	// tests that record or fail it to pin the ordering.
	fsync func(*os.File) error

	mu         sync.Mutex
	f          *os.File
	w          *bufio.Writer
	activeSize int64
	closed     bool

	// live tracks each live job's records and blob refs so compaction
	// knows the dead ratio without re-reading the files: evicting a job
	// turns all its records (plus the evict record itself) dead at once
	// and drops its blob references.
	live        map[string]*liveJob
	blobs       map[string]*blob
	liveRecs    int
	deadRecs    int
	compactions int
	dropped     int
}

// liveJob is the bookkeeping of one job that has not been evicted.
type liveJob struct {
	recs int
	refs []string // blob hashes its records name, one entry per reference
}

// The journal is the canonical jobs.Journal.
var _ jobs.Journal = (*Journal)(nil)

// ErrCorrupt reports a log that is damaged, not merely torn: a broken
// record followed by complete ones. Open refuses such a log.
var ErrCorrupt = errors.New("journal: corrupt log")

// sealedPath is the sealed-segment suffix.
func sealedPath(path string) string { return path + ".1" }

// Open opens (or creates) the journal at path and its blob directory.
// Existing segments are scanned to rebuild the live/dead bookkeeping and
// the blob reference counts, a torn final record in the active segment —
// a crash mid-append — is truncated away so new appends start on a clean
// line boundary, and blobs no live record names are swept.
func Open(path string, cfg Config) (*Journal, error) {
	return open(path, cfg, (*os.File).Sync)
}

func open(path string, cfg Config, fsync func(*os.File) error) (*Journal, error) {
	def := DefaultConfig()
	if cfg.MaxSegmentBytes <= 0 {
		cfg.MaxSegmentBytes = def.MaxSegmentBytes
	}
	if cfg.CompactRatio <= 0 {
		cfg.CompactRatio = def.CompactRatio
	}
	if cfg.CompactMinRecords <= 0 {
		cfg.CompactMinRecords = def.CompactMinRecords
	}
	j := &Journal{
		cfg: cfg, path: path, blobDir: path + ".blobs", fsync: fsync,
		live: make(map[string]*liveJob), blobs: make(map[string]*blob),
	}
	switch err := os.Mkdir(j.blobDir, 0o755); {
	case err == nil:
		// A result blob is durable only once its directory's own entry is.
		if err := j.syncDir(filepath.Dir(path)); err != nil {
			return nil, err
		}
	case !errors.Is(err, os.ErrExist):
		return nil, err
	}
	count := func(r record) error {
		j.countLocked(r)
		return nil
	}

	// Sealed segment: count records; torn tails cannot occur here short of
	// external damage, and a truncated tail is simply ignored on replay.
	if err := readSegment(sealedPath(path), count); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	valid, err := scanValidPrefix(f, count)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop the torn tail (if any) and position appends after the last
	// complete record.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.activeSize = valid
	if err := j.sweepBlobsLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// countLocked applies one record to the live/dead bookkeeping.
func (j *Journal) countLocked(r record) {
	if r.Op == jobs.OpEvict {
		j.retireLocked(r.ID)
		j.deadRecs++
		return
	}
	lj := j.live[r.ID]
	if lj == nil {
		lj = &liveJob{}
		j.live[r.ID] = lj
	}
	lj.recs++
	j.liveRecs++
	for _, h := range r.refs() {
		j.refLocked(lj, h)
	}
}

// retireLocked turns every record of a job dead and releases its blob
// references; the blobs stay on disk until the next sweep.
func (j *Journal) retireLocked(id string) {
	lj := j.live[id]
	if lj == nil {
		return
	}
	j.deadRecs += lj.recs
	j.liveRecs -= lj.recs
	for _, h := range lj.refs {
		j.blobs[h].refs--
	}
	delete(j.live, id)
}

// Append writes one record, applies the fsync policy, and rotates or
// compacts when the thresholds say so.
func (j *Journal) Append(e jobs.JournalEntry) error {
	defer func(start time.Time) {
		appendSeconds.Observe(time.Since(start).Seconds())
	}(time.Now())
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errClosed
	}
	// The durability order of a terminal record: its result blob is
	// fsynced and renamed into place, and the blob directory fsynced,
	// before the line naming it is written, let alone fsynced — a crash
	// at any point leaves either no record or a record whose blob is on
	// disk. Payload blobs ride the submit record's policy: not fsynced.
	durable := e.Op.Terminal()
	r := record{JournalEntry: e}
	if err := j.externalizeLocked(&r, false, durable); err != nil {
		return err
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: encode record: %w", err)
	}
	raw = append(raw, '\n')
	n, err := j.w.Write(raw)
	j.activeSize += int64(n)
	if err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.countLocked(r)
	// Rotation/compaction runs only on terminal appends (and Sync): the
	// Manager issues those outside its table lock, while the cheap
	// running/evict appends happen inside it — a multi-segment rewrite
	// must never stall every concurrent poller behind that lock. Evict-
	// driven dead records therefore wait for the next completion or Sync,
	// which bounds the deferral to one job's lifetime on an active
	// manager.
	if e.Op.Terminal() {
		if durable {
			if err := j.syncLocked(); err != nil {
				return err
			}
		}
		return j.maintainLocked()
	}
	return nil
}

// maintainLocked applies rotation and compaction policy after an append.
// Caller holds mu.
func (j *Journal) maintainLocked() error {
	total := j.liveRecs + j.deadRecs
	if total >= j.cfg.CompactMinRecords &&
		float64(j.deadRecs) >= j.cfg.CompactRatio*float64(total) {
		return j.compactLocked()
	}
	if j.activeSize < j.cfg.MaxSegmentBytes {
		return nil
	}
	_, err := os.Stat(sealedPath(j.path))
	switch {
	case err == nil:
		// Both segments full: folding them into one live-only file is the
		// only way to keep the two-segment invariant.
		return j.compactLocked()
	case errors.Is(err, os.ErrNotExist):
		return j.rotateLocked()
	default:
		// A transient Stat failure must NOT select rotation: rotating
		// renames the active file over the sealed path, and clobbering a
		// sealed segment we merely failed to stat would silently discard
		// its records. Surface the error and retry on a later append.
		return fmt.Errorf("journal: stat sealed segment: %w", err)
	}
}

// rotateLocked seals the active segment and starts a fresh one. Caller
// holds mu.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(j.path, sealedPath(j.path)); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.activeSize = 0
	return nil
}

// compactLocked rewrites both segments keeping only records of live
// (non-evicted) jobs: stream sealed + active through a filter into a
// temporary file, fsync it, rename it over the active path, drop the
// sealed segment and fsync the directory; only then are the blobs no live
// record names unlinked. The rename order is crash-safe — a crash between
// the two steps leaves duplicate records across segments, which replay
// tolerates (duplicate submits are ignored, repeated transitions
// idempotent) — and a crash before the sweep only leaves blobs the next
// Open sweeps. Caller holds mu.
func (j *Journal) compactLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	tmpPath := j.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	w := bufio.NewWriter(tmp)
	var size int64
	keep := func(r record) error {
		lj, ok := j.live[r.ID]
		if !ok {
			return nil // evicted job: every record of it is dead
		}
		// A record written before the blob directory existed moves its
		// bytes out as it is rewritten. Those blobs are fsynced: the log
		// they replace held the bytes durably.
		if len(r.Payload) > 0 || len(r.Result) > 0 {
			if err := j.externalizeLocked(&r, true, true); err != nil {
				return err
			}
			for _, h := range r.refs() {
				j.refLocked(lj, h)
			}
		}
		raw, err := json.Marshal(r)
		if err != nil {
			return err
		}
		n, err := w.Write(append(raw, '\n'))
		size += int64(n)
		return err
	}
	err = readSegment(sealedPath(j.path), keep)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fail(err)
	}
	if err := readSegment(j.path, keep); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := j.fsync(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		return err
	}
	if err := os.Remove(sealedPath(j.path)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := j.syncDir(filepath.Dir(j.path)); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.activeSize = size
	j.deadRecs = 0
	j.compactions++
	return j.sweepBlobsLocked()
}

// Replay streams the records of live jobs — sealed segment first, then
// active — into fn in append order, with every blob ref resolved back
// into Payload/Result and its hash re-checked. Records of evicted jobs
// are skipped, as compaction would drop them. A torn tail in either file
// ends that file's stream cleanly (Open already truncated the active one;
// a sealed tear can only come from external damage).
//
// A blob that is missing or fails its hash is never handed on. A done
// record whose result blob is lost replays without its result, so the
// Manager re-runs the job instead of serving damaged bytes. A submit whose
// payload blob is lost — possible after a crash, since payload blobs are
// not fsynced — parks the job's records: a later failed record, or a done
// record with an intact result, releases them with an empty payload (a
// terminal job needs none); a job still parked at the end could never run
// again, so it is dropped and counted in Stats, the same as a lost submit
// record.
func (j *Journal) Replay(fn func(e jobs.JournalEntry) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		return err
	}
	parked := make(map[string][]jobs.JournalEntry)
	visit := func(r record) error {
		if _, ok := j.live[r.ID]; !ok {
			return nil
		}
		e := r.JournalEntry
		payloadLost := false
		if r.PayloadRef != "" {
			data, ok, err := j.loadBlobLocked(r.PayloadRef)
			if err != nil {
				return err
			}
			e.Payload, payloadLost = data, !ok
		}
		if r.ResultRef != "" {
			data, _, err := j.loadBlobLocked(r.ResultRef)
			if err != nil {
				return err
			}
			e.Result = data
		}
		held, isParked := parked[r.ID]
		if !isParked && !payloadLost {
			return fn(e)
		}
		held = append(held, e)
		if e.Op != jobs.OpFailed && (e.Op != jobs.OpDone || e.Result == nil) {
			parked[r.ID] = held
			return nil
		}
		delete(parked, r.ID)
		held[0].Payload = json.RawMessage("{}")
		for _, he := range held {
			if err := fn(he); err != nil {
				return err
			}
		}
		return nil
	}
	if err := readSegment(sealedPath(j.path), visit); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := readSegment(j.path, visit); err != nil {
		return err
	}
	// The Manager never learns of a dropped job, so it never evicts it:
	// retire it here so the next compaction drops its records and blobs.
	for id := range parked {
		j.retireLocked(id)
		j.dropped++
	}
	return nil
}

// Sync flushes buffered appends, fsyncs the active segment, and applies
// any deferred rotation/compaction (see Append).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errClosed
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	return j.maintainLocked()
}

// syncLocked flushes and fsyncs. Caller holds mu.
func (j *Journal) syncLocked() error {
	defer func(start time.Time) {
		fsyncSeconds.Observe(time.Since(start).Seconds())
	}(time.Now())
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	if err := j.fsync(j.f); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.syncLocked(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Metrics is a point-in-time snapshot of the journal's bookkeeping.
type Metrics struct {
	LiveRecords int   `json:"live_records"`
	DeadRecords int   `json:"dead_records"`
	ActiveBytes int64 `json:"active_bytes"`
	Compactions int   `json:"compactions"`
	// DroppedJobs counts pending jobs Replay dropped because their payload
	// blob was missing or failed its hash.
	DroppedJobs int `json:"dropped_jobs"`
}

// Stats snapshots the journal bookkeeping (tests, operators).
func (j *Journal) Stats() Metrics {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Metrics{
		LiveRecords: j.liveRecs,
		DeadRecords: j.deadRecs,
		ActiveBytes: j.activeSize,
		Compactions: j.compactions,
		DroppedJobs: j.dropped,
	}
}

// errClosed rejects use after Close.
var errClosed = errors.New("journal: closed")

// readSegment streams one segment file into fn, stopping cleanly at a torn
// final record. Returns os.ErrNotExist (wrapped) when the file is absent.
func readSegment(path string, fn func(r record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = scanValidPrefix(f, fn)
	return err
}

// scanValidPrefix reads complete records from r (positioned at the start)
// into fn and returns the byte offset just past the last complete record.
// An undecodable or unterminated final line is a torn write: it is not
// passed to fn and not counted into the returned offset. Garbage that is
// *followed* by further records is real corruption: ErrCorrupt.
func scanValidPrefix(r io.Reader, fn func(r record) error) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var off int64
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: the final append never completed.
			return off, nil
		}
		if err != nil {
			return off, fmt.Errorf("journal: read: %w", err)
		}
		rec, derr := decodeRecord(line)
		if derr != nil {
			// A broken line can only be tolerated as the torn tail; if
			// complete records follow, the file is corrupt, not torn.
			if _, perr := br.Peek(1); perr == io.EOF {
				return off, nil
			}
			return off, fmt.Errorf("%w: record at offset %d: %v", ErrCorrupt, off, derr)
		}
		off += int64(len(line))
		if err := fn(rec); err != nil {
			return off, err
		}
	}
}
