// Package artifacts is the content-addressed blob store behind the
// streaming ingest path: a clip's frames are stored once under the SHA-256
// of their canonical binary encoding, and every later consumer — a worker
// node, a by-hash analysis request — names them by that hash instead of
// re-shipping the bytes.
//
// Two typed artifact kinds exist, each with a deterministic, versioned
// binary encoding (a four-byte magic plus a kind byte, then little-endian
// fields): a clip's frames, and a finished analysis (the response document
// under the request key it answers). The frames encoding round-trips
// exactly, so a request resolved from a frames hash is bit-identical to the
// same request built inline; and the request key names the frames by that
// hash (jobs.RefKey), so both are keyed alike.
//
// The Store is a bounded two-tier cache: an in-memory LRU limited by blob
// count and total bytes, with TTL expiry (janitor plus lazy checks), and
// an optional content-addressed disk spill directory. It is also the
// service's result cache: result blobs are indexed by request key
// (Store.Result). Puts write through to the spill; an LRU eviction drops
// only the memory copy (the spill is the overflow tier and survives
// restarts), while a TTL expiry removes both. The Resolver seam — local
// store first, then an HTTP pull from the originating front end — is how
// worker nodes materialise by-hash payloads.
package artifacts

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/sljmotion/sljmotion/internal/httpbody"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
)

// Kind names an artifact type; the version suffix changes whenever the
// binary encoding does, so stale blobs can never be mis-decoded.
type Kind string

// The typed artifact kinds.
const (
	KindFrames Kind = "frames/v1"
	KindResult Kind = "result/v1"
)

// magic prefixes every artifact blob; the byte after it is the kind tag.
var magic = []byte("SLJA")

// Tags 2 and 3 were the retired silhouettes/v1 and poses/v1 kinds. They
// must never be reused: a spill directory written by an older build may
// still hold such blobs, and KindOf must keep refusing them.
const (
	tagFrames byte = 1
	tagResult byte = 4
)

// Encoding sanity bounds: dimensions and counts beyond these are corrupt
// blobs, not plausible clips, and are rejected before any allocation.
const (
	maxItems  = 1 << 20 // per-blob frame count bound
	headerLen = 5       // len(magic) + 1 kind byte
)

// ErrNotFound is returned by resolvers for hashes they cannot materialise.
var ErrNotFound = errors.New("artifacts: artifact not found")

// errClosed rejects a Put after Close.
var errClosed = errors.New("artifacts: store is closed")

// HashOf returns the content address of a blob: its SHA-256, lowercase hex.
func HashOf(blob []byte) string {
	sum := sha256.Sum256(blob)
	return jobs.Key(sum).String()
}

// KindOf inspects a blob's header. ok is false for anything that is not a
// versioned artifact encoding.
func KindOf(blob []byte) (Kind, bool) {
	if len(blob) < headerLen || !bytes.Equal(blob[:len(magic)], magic) {
		return "", false
	}
	switch blob[len(magic)] {
	case tagFrames:
		return KindFrames, true
	case tagResult:
		return KindResult, true
	}
	return "", false
}

// dec walks a blob during decoding, failing on any truncation.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("artifacts: truncated blob (need %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u32() int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint32(b))
}

// done checks that the blob was consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("artifacts: %d trailing bytes after blob body", len(d.buf)-d.off)
	}
	return nil
}

func open(blob []byte, want Kind) (*dec, error) {
	k, ok := KindOf(blob)
	if !ok {
		return nil, errors.New("artifacts: not an artifact blob")
	}
	if k != want {
		return nil, fmt.Errorf("artifacts: blob is %s, want %s", k, want)
	}
	return &dec{buf: blob, off: headerLen}, nil
}

// EncodeFrames encodes a clip as a frames/v1 blob (jobs.WriteFrames): a
// frame count, then per frame its dimensions and raw interleaved RGB. The
// encoding is canonical — the same frames always produce the same bytes,
// hence the same hash, which jobs.FramesHash computes without the blob.
func EncodeFrames(frames []*imaging.Image) ([]byte, error) {
	if len(frames) == 0 {
		return nil, errors.New("artifacts: no frames to encode")
	}
	size := headerLen + 4
	for _, f := range frames {
		size += 8 + 3*len(f.Pix)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_ = jobs.WriteFrames(buf, frames) // a bytes.Buffer never fails a Write
	return buf.Bytes(), nil
}

// DecodeFrames reverses EncodeFrames exactly.
func DecodeFrames(blob []byte) ([]*imaging.Image, error) {
	var frames []*imaging.Image
	err := walkFrames(blob, func(w, h int, rgb []byte) {
		img := imaging.NewImage(w, h)
		copy(img.Bytes(), rgb)
		frames = append(frames, img)
	})
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// walkFrames checks that blob is a well-formed frames/v1 blob, handing each
// frame's dimensions and RGB bytes (aliasing blob) to frame unless it is nil.
func walkFrames(blob []byte, frame func(w, h int, rgb []byte)) error {
	d, err := open(blob, KindFrames)
	if err != nil {
		return err
	}
	n := d.u32()
	if d.err == nil && (n <= 0 || n > maxItems) {
		d.fail("artifacts: invalid frame count %d", n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		w, h := d.u32(), d.u32()
		if d.err == nil && (w <= 0 || h <= 0 || w > imaging.MaxDim || h > imaging.MaxDim) {
			d.fail("artifacts: invalid image size %dx%d", w, h)
		}
		if rgb := d.take(3 * w * h); rgb != nil && frame != nil {
			frame(w, h, rgb)
		}
	}
	return d.done()
}

// ResultDocOffset is where a result/v1 blob's response document starts:
// after the header and the 32-byte request key.
const ResultDocOffset = headerLen + sha256.Size

// EncodeResult encodes one finished analysis as a result/v1 blob: the
// request key it answers (jobs.RequestKey), then the response document
// exactly as served, so a cache hit writes the stored bytes with no
// decode and no re-marshal. doc must be one JSON document; the encoder
// does not re-check what the server just marshaled, DecodeResult does.
func EncodeResult(key jobs.Key, doc []byte) []byte {
	blob := append(make([]byte, 0, ResultDocOffset+len(doc)), magic...)
	blob = append(append(blob, tagResult), key[:]...)
	return append(blob, doc...)
}

// DecodeResult reverses EncodeResult, rejecting a blob too short to hold
// its key or whose document is not valid JSON. doc aliases blob.
func DecodeResult(blob []byte) (jobs.Key, []byte, error) {
	d, err := open(blob, KindResult)
	if err != nil {
		return jobs.Key{}, nil, err
	}
	var key jobs.Key
	copy(key[:], d.take(len(key)))
	if d.err != nil {
		return jobs.Key{}, nil, d.err
	}
	doc := d.take(len(blob) - d.off)
	if !json.Valid(doc) {
		return jobs.Key{}, nil, errors.New("artifacts: result document is not valid JSON")
	}
	return key, doc, nil
}

// ResultDoc returns the response document of a result/v1 blob that the
// Store accepted (Store.Result); it aliases blob.
func ResultDoc(blob []byte) []byte { return blob[ResultDocOffset:] }

// Config parameterises a Store.
type Config struct {
	// MaxBlobs bounds the in-memory blob count; must be >= 1.
	MaxBlobs int
	// MaxBytes bounds the total in-memory blob bytes; must be >= 1.
	MaxBytes int64
	// TTL expires blobs this long after their last store; 0 disables expiry.
	TTL time.Duration
	// SpillDir, when set, write-through-spills every blob to a
	// content-addressed file (<dir>/<hash>) and serves memory misses from
	// it. LRU evictions keep the spill copy (it is the overflow tier, and
	// it survives restarts); TTL expiry removes it. A spill file's mtime is
	// the blob's last store on the store clock, so the TTL holds in the
	// spill tier too: an expired file is refused and unlinked when read,
	// and the janitor sweeps the directory. The sweep removes only files
	// the store writes (<hash> and <hash>.tmp*); the directory may hold
	// others.
	SpillDir string
	// Clock overrides time.Now, a test seam for TTL expiry.
	Clock func() time.Time
}

// DefaultConfig bounds the store for a small deployment: enough for a few
// dozen clips in flight, with an hour to re-reference them.
func DefaultConfig() Config {
	return Config{MaxBlobs: 256, MaxBytes: 512 << 20, TTL: time.Hour}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.MaxBlobs < 1 {
		return fmt.Errorf("artifacts: MaxBlobs must be >= 1, got %d", c.MaxBlobs)
	}
	if c.MaxBytes < 1 {
		return fmt.Errorf("artifacts: MaxBytes must be >= 1, got %d", c.MaxBytes)
	}
	if c.TTL < 0 {
		return fmt.Errorf("artifacts: TTL must be >= 0, got %v", c.TTL)
	}
	return nil
}

// Metrics is a point-in-time snapshot of the store.
type Metrics struct {
	Blobs         int    `json:"blobs"`
	Bytes         int64  `json:"bytes"`
	CapacityBlobs int    `json:"capacity_blobs"`
	CapacityBytes int64  `json:"capacity_bytes"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Stored        uint64 `json:"stored"`
	EvictedTTL    uint64 `json:"evicted_ttl"`
	EvictedLRU    uint64 `json:"evicted_lru"`
	SpillWrites   uint64 `json:"spill_writes"`
	SpillReads    uint64 `json:"spill_reads"`
	// Pulls / PullFailures count worker round-trips fetching artifacts from
	// their originating front end (HTTPResolver).
	Pulls        uint64 `json:"pulls"`
	PullFailures uint64 `json:"pull_failures"`
}

// ResultMetrics counts the result/v1 lookups by request key: the service's
// result-cache counters (the /v1/metrics "cache" section).
type ResultMetrics struct {
	// Entries is the number of request keys with a readable result blob.
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// Stored counts result blobs put, computed here or pushed by a peer.
	Stored uint64 `json:"stored"`
}

// blobEntry is one stored blob; expires is zero when TTL is disabled.
type blobEntry struct {
	key     jobs.Key
	blob    []byte
	kind    Kind
	expires time.Time
	elem    *list.Element
}

// Store is the bounded content-addressed blob store.
type Store struct {
	cfg   Config
	clock func() time.Time

	mu      sync.Mutex
	entries map[jobs.Key]*blobEntry
	lru     *list.List // front = most recently used; values are *blobEntry
	bytes   int64
	closed  bool
	// results maps a request key to the hash of the newest result blob
	// answering it. An entry goes when that blob can no longer be read:
	// TTL expiry, an LRU eviction without a spill tier, or a failed read.
	results map[jobs.Key]jobs.Key

	hits         uint64
	misses       uint64
	stored       uint64
	evictedTTL   uint64
	evictedLRU   uint64
	spillWrites  uint64
	spillReads   uint64
	pulls        uint64
	pullFailures uint64
	resultHits   uint64
	resultMisses uint64
	resultStored uint64

	janitorStop chan struct{}
	janitor     sync.WaitGroup
}

// NewStore starts a store (plus a TTL janitor when expiry is enabled),
// creating the spill directory if configured.
func NewStore(cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("artifacts: spill dir: %w", err)
		}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Store{
		cfg:         cfg,
		clock:       clock,
		entries:     make(map[jobs.Key]*blobEntry),
		lru:         list.New(),
		results:     make(map[jobs.Key]jobs.Key),
		janitorStop: make(chan struct{}),
	}
	if cfg.TTL > 0 {
		s.janitor.Add(1)
		go s.runJanitor()
	}
	return s, nil
}

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// Put stores a blob under its content address, returning the hash. The blob
// must carry a valid artifact header. Storing an already-present hash
// refreshes its TTL and recency. Blobs larger than the byte capacity are
// rejected (they could never be admitted). A result blob also becomes the
// answer Result returns for its request key. The spill write comes before
// admission, so a Put that fails leaves nothing behind: no memory entry,
// no result-index entry and no count.
func (s *Store) Put(blob []byte) (string, error) {
	return s.putVerified(jobs.Key(sha256.Sum256(blob)), blob)
}

// putVerified is Put for a blob whose SHA-256 the caller has already
// checked to be key: it hashes nothing.
func (s *Store) putVerified(key jobs.Key, blob []byte) (string, error) {
	kind, ok := KindOf(blob)
	if !ok {
		return "", errors.New("artifacts: blob has no valid artifact header")
	}
	if kind == KindResult && len(blob) < ResultDocOffset {
		return "", errors.New("artifacts: result blob is shorter than its request key")
	}
	if int64(len(blob)) > s.cfg.MaxBytes {
		return "", fmt.Errorf("artifacts: blob of %d bytes exceeds the store's %d-byte capacity", len(blob), s.cfg.MaxBytes)
	}
	return s.put(key, kind, blob)
}

// put stores blob, of the given kind, under key, its SHA-256.
func (s *Store) put(key jobs.Key, kind Kind, blob []byte) (string, error) {
	now := s.clock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return "", errClosed
	}
	if s.cfg.SpillDir != "" {
		// On a refresh this moves the spill copy's mtime, the last store.
		if err := s.writeSpill(key.String(), blob, now); err != nil {
			return "", err
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", errClosed
	}
	var expires time.Time
	if s.cfg.TTL > 0 {
		expires = now.Add(s.cfg.TTL)
	}
	if kind == KindResult {
		s.results[resultKey(blob)] = key
		s.resultStored++
	}
	if e, ok := s.entries[key]; ok {
		e.expires = expires
		s.lru.MoveToFront(e.elem)
	} else {
		for len(s.entries) >= s.cfg.MaxBlobs || s.bytes+int64(len(blob)) > s.cfg.MaxBytes {
			oldest := s.lru.Back()
			if oldest == nil {
				break
			}
			s.removeLocked(oldest.Value.(*blobEntry), false)
			s.evictedLRU++
		}
		e := &blobEntry{key: key, blob: blob, kind: kind, expires: expires}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
		s.bytes += int64(len(blob))
	}
	s.stored++
	s.mu.Unlock()
	return key.String(), nil
}

// Result returns the newest result/v1 blob stored for a request key, and
// its hash, counting a hit or a miss in ResultMetrics. An index entry
// whose blob can no longer be read is dropped.
func (s *Store) Result(key jobs.Key) (string, []byte, bool) {
	s.mu.Lock()
	bk, indexed := s.results[key]
	s.mu.Unlock()
	var blob []byte
	found := false
	if indexed {
		blob, _, found = s.Get(bk.String())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if found {
		s.resultHits++
		return bk.String(), blob, true
	}
	if indexed && s.results[key] == bk {
		delete(s.results, key)
	}
	s.resultMisses++
	return "", nil, false
}

// resultKey reads the request key of a result blob Put admitted.
func resultKey(blob []byte) jobs.Key {
	var k jobs.Key
	copy(k[:], blob[headerLen:ResultDocOffset])
	return k
}

// Get returns the blob stored under the given hex hash, consulting the
// spill tier on a memory miss (spilled blobs are verified against their
// hash and re-admitted). ok is false when the hash is unknown or expired.
func (s *Store) Get(hash string) ([]byte, Kind, bool) {
	key, ok := jobs.ParseKey(hash)
	if !ok {
		return nil, "", false
	}
	now := s.clock()
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && s.cfg.TTL > 0 && !e.expires.After(now) {
		s.removeLocked(e, true)
		s.evictedTTL++
		ok = false
	}
	if ok {
		s.lru.MoveToFront(e.elem)
		s.hits++
		blob, kind := e.blob, e.kind
		s.mu.Unlock()
		return blob, kind, true
	}
	spill := s.cfg.SpillDir
	s.mu.Unlock()

	if spill != "" {
		if blob, kind, ok := s.readSpill(key, hash, now); ok {
			return blob, kind, true
		}
	}
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return nil, "", false
}

// Open returns a seekable reader over the blob stored under hash, for
// streaming (range) HTTP serving. Memory hits are served from the in-memory
// blob; a memory miss with a spill tier streams straight from the spill
// file WITHOUT loading it into memory — the point of range requests is
// exactly that very large clips should not transit the memory tier. A
// spill-backed reader implements io.Closer and the caller must close it.
// The streamed spill bytes are not re-hashed (that would require the full
// read this path avoids); clients can verify against the ETag/hash
// themselves, and the non-streaming Get path still verifies on read.
func (s *Store) Open(hash string) (io.ReadSeeker, Kind, int64, bool) {
	key, ok := jobs.ParseKey(hash)
	if !ok {
		return nil, "", 0, false
	}
	now := s.clock()
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && s.cfg.TTL > 0 && !e.expires.After(now) {
		s.removeLocked(e, true)
		s.evictedTTL++
		ok = false
	}
	if ok {
		s.lru.MoveToFront(e.elem)
		s.hits++
		blob, kind := e.blob, e.kind
		s.mu.Unlock()
		return bytes.NewReader(blob), kind, int64(len(blob)), true
	}
	spill := s.cfg.SpillDir
	s.mu.Unlock()

	if spill != "" {
		if f, kind, size, ok := s.openSpill(key, hash, now); ok {
			return f, kind, size, true
		}
	}
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return nil, "", 0, false
}

// openSpill streams a spill file: the artifact header is read to recover
// the kind, then the reader is rewound to the start. An expired file, or
// one whose header names no kind (a retired tag), is unlinked instead.
func (s *Store) openSpill(key jobs.Key, hash string, now time.Time) (io.ReadSeeker, Kind, int64, bool) {
	path := filepath.Join(s.cfg.SpillDir, hash)
	f, err := os.Open(path)
	if err != nil {
		return nil, "", 0, false
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, "", 0, false
	}
	if s.spillExpired(st.ModTime(), now) {
		f.Close()
		s.expireSpill([]jobs.Key{key}, now)
		return nil, "", 0, false
	}
	head := make([]byte, headerLen)
	if _, err := io.ReadFull(f, head); err != nil {
		f.Close()
		return nil, "", 0, false
	}
	kind, ok := KindOf(head)
	if !ok {
		f.Close()
		_ = os.Remove(path)
		return nil, "", 0, false
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, "", 0, false
	}
	s.mu.Lock()
	s.spillReads++
	s.hits++
	s.mu.Unlock()
	return f, kind, st.Size(), true
}

// Artifact implements Resolver over the local store.
func (s *Store) Artifact(hash string) ([]byte, error) {
	if blob, _, ok := s.Get(hash); ok {
		return blob, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, hash)
}

// RecordPull counts one worker pull round-trip against the store's metrics.
func (s *Store) RecordPull(ok bool) {
	s.mu.Lock()
	s.pulls++
	if !ok {
		s.pullFailures++
	}
	s.mu.Unlock()
}

// ResultMetrics returns a snapshot of the result lookups.
func (s *Store) ResultMetrics() ResultMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(s.clock())
	return ResultMetrics{
		Entries: len(s.results),
		Hits:    s.resultHits,
		Misses:  s.resultMisses,
		Stored:  s.resultStored,
	}
}

// Metrics returns a consistent snapshot of occupancy and counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(s.clock())
	return Metrics{
		Blobs:         len(s.entries),
		Bytes:         s.bytes,
		CapacityBlobs: s.cfg.MaxBlobs,
		CapacityBytes: s.cfg.MaxBytes,
		Hits:          s.hits,
		Misses:        s.misses,
		Stored:        s.stored,
		EvictedTTL:    s.evictedTTL,
		EvictedLRU:    s.evictedLRU,
		SpillWrites:   s.spillWrites,
		SpillReads:    s.spillReads,
		Pulls:         s.pulls,
		PullFailures:  s.pullFailures,
	}
}

// Close stops the janitor and drops all in-memory blobs (spill files
// persist — they are the restart-survival tier). Idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.entries = make(map[jobs.Key]*blobEntry)
	s.results = make(map[jobs.Key]jobs.Key)
	s.lru.Init()
	s.bytes = 0
	s.mu.Unlock()
	close(s.janitorStop)
	s.janitor.Wait()
}

// writeSpill persists one blob content-addressed, atomically via a rename
// so a crashed write never leaves a corrupt hash-named file, and stamps
// the file's mtime with stored, the blob's last store.
func (s *Store) writeSpill(hash string, blob []byte, stored time.Time) error {
	path := filepath.Join(s.cfg.SpillDir, hash)
	// Content-addressed: an existing file is already correct; only its
	// last-store time moves.
	switch err := os.Chtimes(path, stored, stored); {
	case err == nil:
		return nil
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("artifacts: spill: %w", err)
	}
	tmp, err := os.CreateTemp(s.cfg.SpillDir, hash+".tmp*")
	if err != nil {
		return fmt.Errorf("artifacts: spill: %w", err)
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chtimes(tmp.Name(), stored, stored)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("artifacts: spill: %w", werr)
	}
	s.mu.Lock()
	s.spillWrites++
	s.mu.Unlock()
	return nil
}

// readSpill serves a memory miss from the spill tier, verifying the file
// against its hash (a corrupt file is removed, never served) and
// re-admitting the blob into memory until its last store's TTL runs out.
// An expired file is unlinked instead.
func (s *Store) readSpill(key jobs.Key, hash string, now time.Time) ([]byte, Kind, bool) {
	path := filepath.Join(s.cfg.SpillDir, hash)
	st, err := os.Stat(path)
	if err != nil {
		return nil, "", false
	}
	if s.spillExpired(st.ModTime(), now) {
		s.expireSpill([]jobs.Key{key}, now)
		return nil, "", false
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, "", false
	}
	if sha256.Sum256(blob) != key {
		_ = os.Remove(path)
		return nil, "", false
	}
	kind, ok := KindOf(blob)
	if !ok {
		_ = os.Remove(path)
		return nil, "", false
	}
	s.mu.Lock()
	if !s.closed {
		if _, present := s.entries[key]; !present {
			for len(s.entries) >= s.cfg.MaxBlobs || s.bytes+int64(len(blob)) > s.cfg.MaxBytes {
				oldest := s.lru.Back()
				if oldest == nil {
					break
				}
				s.removeLocked(oldest.Value.(*blobEntry), false)
				s.evictedLRU++
			}
			var expires time.Time
			if s.cfg.TTL > 0 {
				expires = st.ModTime().Add(s.cfg.TTL)
			}
			e := &blobEntry{key: key, blob: blob, kind: kind, expires: expires}
			e.elem = s.lru.PushFront(e)
			s.entries[key] = e
			s.bytes += int64(len(blob))
		}
	}
	s.spillReads++
	s.hits++
	s.mu.Unlock()
	return blob, kind, true
}

// spillExpired reports whether a spill file whose last store was at
// stored has outlived the TTL at now.
func (s *Store) spillExpired(stored, now time.Time) bool {
	return s.cfg.TTL > 0 && !stored.Add(s.cfg.TTL).After(now)
}

// spillSweepBatch bounds the spill files one expiry unlinks per hold of
// mu, so a sweep over a large spill directory never stalls lookups for
// long.
const spillSweepBatch = 64

// expireSpill unlinks the expired spill files of keys and drops the
// result-index entries they answered. Each file's result key is read
// before mu is taken; under mu, a key is skipped when its blob was stored
// again after the caller looked at it (it is in memory and unexpired, or
// its file's last store moved).
func (s *Store) expireSpill(keys []jobs.Key, now time.Time) {
	type doomed struct {
		key, rk jobs.Key
		result  bool
	}
	ds := make([]doomed, len(keys))
	for i, k := range keys {
		ds[i].key = k
		ds[i].rk, ds[i].result = spillResultKey(filepath.Join(s.cfg.SpillDir, k.String()))
	}
	for len(ds) > 0 {
		batch := ds[:min(len(ds), spillSweepBatch)]
		ds = ds[len(batch):]
		s.mu.Lock()
		for _, d := range batch {
			if e, ok := s.entries[d.key]; ok && e.expires.After(now) {
				continue
			}
			path := filepath.Join(s.cfg.SpillDir, d.key.String())
			if st, err := os.Stat(path); err == nil && !s.spillExpired(st.ModTime(), now) {
				continue
			}
			if os.Remove(path) == nil {
				s.evictedTTL++
			}
			if d.result && s.results[d.rk] == d.key {
				delete(s.results, d.rk)
			}
		}
		s.mu.Unlock()
	}
}

// spillResultKey reads the request key from the header of the spill file
// at path; ok is false unless the file holds a result blob.
func spillResultKey(path string) (jobs.Key, bool) {
	var head [ResultDocOffset]byte
	f, err := os.Open(path)
	if err != nil {
		return jobs.Key{}, false
	}
	defer f.Close()
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return jobs.Key{}, false
	}
	if kind, ok := KindOf(head[:]); !ok || kind != KindResult {
		return jobs.Key{}, false
	}
	return resultKey(head[:]), true
}

// sweepSpill expires every spill file whose last store has outlived the
// TTL: the spill-tier half of the janitor's sweep. Only files the store
// writes are touched — hash-named blobs and the "<hash>.tmp*" files an
// interrupted write leaves — so a spill directory shared with other
// files keeps them.
func (s *Store) sweepSpill(now time.Time) {
	dir := s.cfg.SpillDir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	const hashLen = 2 * sha256.Size
	var expired []jobs.Key
	for _, de := range entries {
		name := de.Name()
		if len(name) < hashLen {
			continue
		}
		key, ok := jobs.ParseKey(name[:hashLen])
		if !ok || key.String() != name[:hashLen] {
			continue
		}
		isBlob := len(name) == hashLen
		if !isBlob && !strings.HasPrefix(name[hashLen:], ".tmp") {
			continue
		}
		info, err := de.Info()
		if err != nil || !info.Mode().IsRegular() || !s.spillExpired(info.ModTime(), now) {
			continue
		}
		if isBlob {
			expired = append(expired, key)
		} else {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	s.expireSpill(expired, now)
}

// runJanitor periodically expires blobs, in memory and in the spill tier.
func (s *Store) runJanitor() {
	defer s.janitor.Done()
	interval := s.cfg.TTL / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			now := s.clock()
			s.mu.Lock()
			s.sweepLocked(now)
			s.mu.Unlock()
			if s.cfg.SpillDir != "" {
				s.sweepSpill(now)
			}
		}
	}
}

// sweepLocked drops expired blobs (and their spill files). Caller holds mu.
func (s *Store) sweepLocked(now time.Time) {
	if s.cfg.TTL <= 0 {
		return
	}
	for _, e := range s.entries {
		if !e.expires.After(now) {
			s.removeLocked(e, true)
			s.evictedTTL++
		}
	}
}

// removeLocked unlinks one blob; dropSpill also removes its spill file
// (TTL expiry — the artifact is genuinely gone), while LRU evictions keep
// it as the overflow tier. A result blob that no tier holds any more
// leaves the result index. Caller holds mu.
func (s *Store) removeLocked(e *blobEntry, dropSpill bool) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.key)
	s.bytes -= int64(len(e.blob))
	if dropSpill && s.cfg.SpillDir != "" {
		_ = os.Remove(filepath.Join(s.cfg.SpillDir, e.key.String()))
	}
	if e.kind == KindResult && (dropSpill || s.cfg.SpillDir == "") {
		if rk := resultKey(e.blob); s.results[rk] == e.key {
			delete(s.results, rk)
		}
	}
}

// Resolver materialises an artifact blob from its content hash. The local
// Store implements it directly; HTTPResolver adds the worker pull protocol.
type Resolver interface {
	// Artifact returns the blob stored under the hex hash, or an error
	// wrapping ErrNotFound when it cannot be materialised.
	Artifact(hash string) ([]byte, error)
}

// HTTPResolver resolves hashes against the local store first, then pulls
// misses from the originating front end (GET {origin}/v1/artifacts/{hash}),
// verifies them against the hash, and caches them locally — the second
// by-hash job for the same clip never leaves the node.
type HTTPResolver struct {
	// Local is the node's own store; consulted first, populated on pull.
	Local *Store
	// Origin is the front end's base URL; empty disables pulling.
	Origin string
	// Client overrides http.DefaultClient.
	Client *http.Client
}

// Artifact implements Resolver.
func (h *HTTPResolver) Artifact(hash string) ([]byte, error) {
	if h.Local != nil {
		if blob, _, ok := h.Local.Get(hash); ok {
			return blob, nil
		}
	}
	if h.Origin == "" {
		return nil, fmt.Errorf("%w: %s (no artifact origin to pull from)", ErrNotFound, hash)
	}
	key, ok := jobs.ParseKey(hash)
	if !ok {
		return nil, fmt.Errorf("artifacts: malformed hash %q", hash)
	}
	blob, err := h.pull(hash)
	if h.Local != nil {
		h.Local.RecordPull(err == nil)
	}
	if err != nil {
		return nil, err
	}
	if sha256.Sum256(blob) != key {
		return nil, fmt.Errorf("artifacts: pulled blob does not hash to %s", hash)
	}
	if h.Local != nil {
		if _, err := h.Local.putVerified(key, blob); err != nil {
			return nil, err
		}
	}
	return blob, nil
}

func (h *HTTPResolver) pull(hash string) ([]byte, error) {
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(h.Origin + "/v1/artifacts/" + hash)
	if err != nil {
		return nil, fmt.Errorf("artifacts: pull %s: %w", hash, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("%w: %s (origin %s)", ErrNotFound, hash, h.Origin)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("artifacts: pull %s: origin answered %s", hash, resp.Status)
	}
	var limit int64 = 1 << 30
	if h.Local != nil && h.Local.cfg.MaxBytes < limit {
		limit = h.Local.cfg.MaxBytes
	}
	blob, err := httpbody.Read(resp.Body, resp.ContentLength, limit)
	if errors.Is(err, httpbody.ErrTooLarge) {
		return nil, fmt.Errorf("artifacts: pull %s: blob exceeds the %d-byte pull limit", hash, limit)
	}
	if err != nil {
		return nil, fmt.Errorf("artifacts: pull %s: %w", hash, err)
	}
	return blob, nil
}
