package jobs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// JournalOp names one kind of journal record. The ops mirror the job
// lifecycle (submit → running → done|failed) plus the TTL eviction that
// retires a record, so an append-only log of them is sufficient to rebuild
// the Manager's whole job table.
type JournalOp string

// Journal record operations.
const (
	OpSubmit  JournalOp = "submit"
	OpRunning JournalOp = "running"
	OpDone    JournalOp = "done"
	OpFailed  JournalOp = "failed"
	OpEvict   JournalOp = "evict"
)

// Terminal reports whether the op ends a job's execution. Terminal appends
// are the ones a durable journal fsyncs (see internal/journal): losing a
// submit record loses at most an acknowledgement, losing a done record
// only costs a re-execution, but serving a result whose record may
// disappear would break the restart contract.
func (o JournalOp) Terminal() bool { return o == OpDone || o == OpFailed }

// JournalEntry is one record of the job journal. Submission records carry
// the full serializable Payload — everything needed to re-execute the job
// after a restart; done records carry the result document as JSON; failed
// records the error text. At is the Manager-clock timestamp of the
// transition, so replayed jobs keep their original times.
//
// The payload and result travel pre-encoded: a clip payload is megabytes,
// and encoding it inside Append — which the Manager calls under its table
// lock — would stall every concurrent poller for the duration of the
// encode. The Manager encodes both outside the lock.
type JournalEntry struct {
	Op JournalOp `json:"op"`
	ID string    `json:"id"`
	At time.Time `json:"at"`
	// Payload is the encoded Payload of a submit record (encodeJournalPayload):
	// the raw-frame blob this release writes, or the JSON Payload older
	// releases wrote. Only the JSON form is valid JSON, so a journal must
	// store the bytes opaquely (internal/journal keeps them as a blob file)
	// rather than inline them into a JSON record.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Result is the marshalled result document of a done record. A done
	// record without a result (the value did not serialize) is treated as
	// interrupted on replay and the job re-runs.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure message of a failed record.
	Error string `json:"error,omitempty"`
}

// Journal is the durability seam of the Manager: an append-only record
// sink plus the replay that rebuilds state from it. internal/journal's
// file-backed WAL is the canonical implementation; tests substitute
// in-memory fakes.
//
// Append MUST be safe for concurrent use: cheap lifecycle records
// (submit/running/evict) are appended under the Manager's lock, but
// terminal records are appended by worker goroutines OUTSIDE it — with
// Workers > 1, concurrent Appends happen. Implementations must not
// re-enter the Manager. Replay must stream every live record in append
// order; records of evicted jobs may be omitted (compaction does exactly
// that).
type Journal interface {
	// Append durably records one entry. The implementation decides its
	// fsync policy; returning an error from a submit append rejects the
	// submission.
	Append(e JournalEntry) error
	// Replay streams the journal's records in append order into fn,
	// stopping at fn's first error.
	Replay(fn func(e JournalEntry) error) error
	// Sync flushes buffered records to stable storage (graceful shutdown)
	// and may apply deferred log maintenance.
	Sync() error
}

// journalPayloadTag opens a submit payload in the raw-frame encoding. A
// blob without it is a JSON Payload, as releases before this encoding
// journaled — JSON always starts with '{' or whitespace, never this tag.
const journalPayloadTag = "slj-journal-payload/v2\n"

// encodeJournalPayload encodes a submit record's payload: the tag, the
// little-endian uint32 length of a JSON header, the header — the Payload
// with every frame's RGB left out, so each frame keeps only its W and H —
// and then each frame's 3·W·H raw RGB bytes in order. Frames are the
// megabytes of an inline clip; as raw bytes they skip base64's 4/3
// inflation and its encode and decode passes. The sizes come from the
// header. A payload whose frames do not match their sizes (it cannot
// decode anyway) is encoded as plain JSON, which decodeJournalPayload also
// reads. Dispatch does not use this form: its wire format stays JSON.
func encodeJournalPayload(p Payload) ([]byte, error) {
	hdr := p
	hdr.Frames = make([]FrameWire, len(p.Frames))
	pixels := 0
	for i, f := range p.Frames {
		if !validDims(f.W, f.H) || len(f.RGB) != 3*f.W*f.H {
			return json.Marshal(&p)
		}
		hdr.Frames[i] = FrameWire{W: f.W, H: f.H}
		pixels += len(f.RGB)
	}
	head, err := json.Marshal(&hdr)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(journalPayloadTag)+4+len(head)+pixels)
	out = append(out, journalPayloadTag...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(head)))
	out = append(out, head...)
	for _, f := range p.Frames {
		out = append(out, f.RGB...)
	}
	return out, nil
}

// decodeJournalPayload reverses encodeJournalPayload, and reads a JSON
// Payload (a blob without the tag) as older releases wrote it. Every
// accepted frame holds exactly 3·W·H bytes; its RGB aliases blob.
func decodeJournalPayload(blob []byte) (Payload, error) {
	var p Payload
	rest, tagged := bytes.CutPrefix(blob, []byte(journalPayloadTag))
	if !tagged {
		err := json.Unmarshal(blob, &p)
		return p, err
	}
	if len(rest) < 4 {
		return Payload{}, errors.New("jobs: journal payload: truncated header length")
	}
	n := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(n) > uint64(len(rest)) {
		return Payload{}, fmt.Errorf("jobs: journal payload: %d-byte header in a %d-byte remainder", n, len(rest))
	}
	if err := json.Unmarshal(rest[:n], &p); err != nil {
		return Payload{}, fmt.Errorf("jobs: journal payload header: %w", err)
	}
	rest = rest[n:]
	for i := range p.Frames {
		f := &p.Frames[i]
		if len(f.RGB) != 0 {
			return Payload{}, fmt.Errorf("jobs: journal payload: frame %d carries pixels in the header", i)
		}
		if !validDims(f.W, f.H) {
			return Payload{}, fmt.Errorf("jobs: journal payload: frame %d has invalid size %dx%d", i, f.W, f.H)
		}
		size := 3 * f.W * f.H
		if size > len(rest) {
			return Payload{}, fmt.Errorf("jobs: journal payload: frame %d needs %d bytes, %d remain", i, size, len(rest))
		}
		f.RGB, rest = rest[:size:size], rest[size:]
	}
	if len(rest) != 0 {
		return Payload{}, fmt.Errorf("jobs: journal payload: %d trailing bytes", len(rest))
	}
	return p, nil
}
