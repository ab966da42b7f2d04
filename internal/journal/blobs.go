package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// record is one log line: a jobs.JournalEntry whose bulk fields (the
// submit payload, the done result) live in the blob directory under their
// SHA-256, named by PayloadRef/ResultRef. Payload and Result stay inline
// only in lines written before the blob directory existed; those replay
// as they are and move out to blobs at the next compaction.
type record struct {
	jobs.JournalEntry
	PayloadRef string `json:"payload_ref,omitempty"`
	ResultRef  string `json:"result_ref,omitempty"`
}

// refs lists the blobs the record names.
func (r *record) refs() []string {
	var out []string
	for _, h := range []string{r.PayloadRef, r.ResultRef} {
		if h != "" {
			out = append(out, h)
		}
	}
	return out
}

// decodeRecord parses one log line. A ref must be a lowercase hex SHA-256:
// it becomes a file name, so anything else is corruption, never a path.
func decodeRecord(line []byte) (record, error) {
	var r record
	if err := json.Unmarshal(line, &r); err != nil {
		return r, err
	}
	for _, h := range r.refs() {
		if !isHash(h) {
			return r, fmt.Errorf("blob ref %q is not a sha256 hex digest", h)
		}
	}
	return r, nil
}

func isHash(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func hashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// blob is the bookkeeping of one file in the blob directory.
type blob struct {
	// refs counts the live records naming the blob. Identical payloads
	// share one blob, so it is unlinked only once the last job naming it
	// is evicted — and even then only by sweepBlobsLocked, after the log
	// on disk has stopped naming it.
	refs int
	// verified: this process wrote the file or checked its hash, so an
	// identical put can skip the write. synced: its bytes were fsynced.
	verified, synced bool
}

// tmpPrefix marks a blob write in progress; Open sweeps leftovers.
const tmpPrefix = ".tmp-"

// refLocked adds one live reference from job lj to blob h. Caller holds mu.
func (j *Journal) refLocked(lj *liveJob, h string) {
	lj.refs = append(lj.refs, h)
	b := j.blobs[h]
	if b == nil {
		b = &blob{}
		j.blobs[h] = b
	}
	b.refs++
}

// externalizeLocked moves a record's inline payload and result out into
// blobs, leaving their hashes in PayloadRef/ResultRef. The sync flags say
// which of the two blobs must be durable before the record is written.
// Caller holds mu.
func (j *Journal) externalizeLocked(r *record, syncPayload, syncResult bool) error {
	if len(r.Payload) > 0 {
		h, err := j.putBlobLocked(r.Payload, syncPayload)
		if err != nil {
			return fmt.Errorf("journal: payload blob: %w", err)
		}
		r.PayloadRef, r.Payload = h, nil
	}
	if len(r.Result) > 0 {
		h, err := j.putBlobLocked(r.Result, syncResult)
		if err != nil {
			return fmt.Errorf("journal: result blob: %w", err)
		}
		r.ResultRef, r.Result = h, nil
	}
	return nil
}

// putBlobLocked stores data under its hash and returns the hash. The
// bytes go to a temp file that is renamed into place, so a blob name never
// holds a partial write. With durable set, the temp file is fsynced before
// the rename and the directory after it — both before the caller writes
// the log line that names the blob. Caller holds mu.
func (j *Journal) putBlobLocked(data []byte, durable bool) (string, error) {
	h := hashOf(data)
	b := j.blobs[h]
	if b == nil {
		b = &blob{}
		j.blobs[h] = b
	}
	if b.verified && (b.synced || !durable) {
		return h, nil
	}
	tmp, err := os.CreateTemp(j.blobDir, tmpPrefix+"*")
	if err != nil {
		return "", err
	}
	_, err = tmp.Write(data)
	if err == nil && durable {
		err = j.fsync(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(j.blobDir, h))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if durable {
		if err := j.syncDir(j.blobDir); err != nil {
			return "", err
		}
	}
	b.verified, b.synced = true, b.synced || durable
	return h, nil
}

// loadBlobLocked reads blob h and re-checks its hash. ok is false when
// the blob is missing or its bytes no longer hash to its name; err is
// reserved for I/O failures, which refuse the replay. Caller holds mu.
func (j *Journal) loadBlobLocked(h string) (data []byte, ok bool, err error) {
	data, err = os.ReadFile(filepath.Join(j.blobDir, h))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, false, fmt.Errorf("journal: read blob %s: %w", h, err)
	}
	ok = err == nil && hashOf(data) == h
	if b := j.blobs[h]; b != nil {
		b.verified = ok
	}
	if !ok {
		return nil, false, nil
	}
	return data, true, nil
}

// sweepBlobsLocked unlinks every file in the blob directory that no live
// record names: blobs of evicted jobs, blobs whose record never reached
// the log, and temp files of interrupted writes. It runs only where the
// log on disk no longer needs them — on Open, and after a compaction has
// put a log without them in place — and fsyncs the active segment before
// unlinking, so the evict records that freed a blob cannot roll back
// after it is gone. Caller holds mu.
func (j *Journal) sweepBlobsLocked() error {
	entries, err := os.ReadDir(j.blobDir)
	if err != nil {
		return fmt.Errorf("journal: list blobs: %w", err)
	}
	var doomed []string
	for _, de := range entries {
		if b := j.blobs[de.Name()]; b == nil || b.refs <= 0 {
			doomed = append(doomed, de.Name())
		}
	}
	for h, b := range j.blobs {
		if b.refs <= 0 {
			delete(j.blobs, h)
		}
	}
	if len(doomed) == 0 {
		return nil
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	for _, name := range doomed {
		if err := os.Remove(filepath.Join(j.blobDir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("journal: unlink blob: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory, making renames and creations in it durable.
func (j *Journal) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = j.fsync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
