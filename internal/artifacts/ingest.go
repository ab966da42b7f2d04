// Streaming clip ingest: chunked upload sessions over the artifact store.
//
// A session accepts a clip as ordered frame chunks. The paper's pipeline is
// batch — Step 1 estimates the background over the *whole* sequence before
// Steps 2-5 touch any frame — so a naive streaming design would either wait
// for the last chunk (no overlap) or segment against a partial background
// (different answer). The session does neither: as each chunk arrives it
// speculatively segments the new frames against the background estimated
// over the frames received so far, tagging every speculative silhouette
// with the content hash of that prefix background. Seal then estimates the
// final background over the complete clip and keeps exactly the
// speculative silhouettes whose background tag matches it, re-segmenting
// the rest. Because SegmentFrame is deterministic in (frame, background),
// the sealed output is bit-identical to the batch pipeline regardless of
// how much speculation survived — overlap is a pure latency win, never a
// result change. On stable footage the prefix estimate converges to the
// final background after a few frames, so in practice most of the clip is
// segmented before the upload finishes.
//
// Seal stores two artifacts — the frames and the segmentation output — and
// registers a frames-hash → silhouettes-hash memo, which the server uses
// to answer a by-hash analysis over the same clip without re-running
// segmentation (the injected silhouettes being, again, bit-identical to a
// recompute).
package artifacts

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sljmotion/sljmotion/internal/cache"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/segmentation"
)

// DefaultSessionTTL expires idle ingest sessions (the clip never sealed).
const DefaultSessionTTL = 15 * time.Minute

// DefaultMaxSessions bounds concurrently open (unsealed) sessions.
const DefaultMaxSessions = 64

// memoCap bounds the frames-hash → silhouettes-hash memo registry.
const memoCap = 256

// SessionConfig parameterises the ingest session layer.
type SessionConfig struct {
	// Store receives the sealed artifacts. Required.
	Store *Store
	// Seg is the segmentation configuration sessions segment under. It must
	// equal the analyzer's, or the memo would hand back silhouettes a batch
	// run would not have produced.
	Seg segmentation.Config
	// TTL expires sessions this long after their last append or seal;
	// 0 selects DefaultSessionTTL.
	TTL time.Duration
	// MaxSessions bounds concurrently open sessions; 0 selects
	// DefaultMaxSessions. A sealed session no longer counts: it keeps only
	// its seal document, for idempotent re-seal, until its TTL runs out.
	MaxSessions int
	// Clock overrides time.Now, a test seam for session expiry.
	Clock func() time.Time
}

// SessionMetrics is a point-in-time snapshot of the ingest layer.
type SessionMetrics struct {
	// Open counts unsealed sessions, the ones MaxSessions bounds.
	Open             int    `json:"open"`
	Opened           uint64 `json:"opened"`
	Sealed           uint64 `json:"sealed"`
	Expired          uint64 `json:"expired"`
	FramesIngested   uint64 `json:"frames_ingested"`
	EagerSegmented   uint64 `json:"eager_segmented"`
	EagerReused      uint64 `json:"eager_reused"`
	EagerResegmented uint64 `json:"eager_resegmented"`
}

// OutOfOrderError rejects a chunk appended out of sequence; Expected is the
// next acceptable chunk index, so clients can resynchronise.
type OutOfOrderError struct {
	Got      int
	Expected int
}

func (e *OutOfOrderError) Error() string {
	return fmt.Sprintf("artifacts: chunk %d out of order; next chunk is %d", e.Got, e.Expected)
}

// ErrSessionSealed rejects appends to a sealed (or sealing) session.
var ErrSessionSealed = errors.New("artifacts: session is sealed")

// SealDoc is the terminal document of one ingest session: the content
// hashes a by-hash analysis request needs, plus the speculation outcome.
type SealDoc struct {
	ClipID          string `json:"clip_id"`
	FramesHash      string `json:"frames_hash"`
	SilhouettesHash string `json:"silhouettes_hash"`
	Frames          int    `json:"frames"`
	// EagerReused counts frames whose speculative (mid-upload) segmentation
	// was computed against what turned out to be the final background and
	// was therefore kept; EagerResegmented counts the rest.
	EagerReused      int `json:"eager_reused"`
	EagerResegmented int `json:"eager_resegmented"`
}

// SessionStatus reports one session's progress.
type SessionStatus struct {
	ClipID string `json:"clip_id"`
	Frames int    `json:"frames"`
	Chunks int    `json:"chunks"`
	// EagerSegmented counts frames whose speculative segmentation has
	// completed (against some prefix background; seal decides reuse).
	EagerSegmented int  `json:"eager_segmented"`
	Sealed         bool `json:"sealed"`
}

// Sessions manages the open ingest sessions of one server.
type Sessions struct {
	cfg   SessionConfig
	pipe  *segmentation.Pipeline
	clock func() time.Time

	mu       sync.Mutex
	sessions map[string]*Session

	memoMu    sync.Mutex
	memo      map[string]string
	memoOrder []string

	opened           atomic.Uint64
	sealedN          atomic.Uint64
	expired          atomic.Uint64
	framesIngested   atomic.Uint64
	eagerSegmented   atomic.Uint64
	eagerReused      atomic.Uint64
	eagerResegmented atomic.Uint64

	janitorStop chan struct{}
	janitor     sync.WaitGroup
}

// NewSessions starts the ingest layer (plus its expiry janitor).
func NewSessions(cfg SessionConfig) (*Sessions, error) {
	if cfg.Store == nil {
		return nil, errors.New("artifacts: SessionConfig.Store is required")
	}
	if cfg.TTL < 0 {
		return nil, fmt.Errorf("artifacts: session TTL must be >= 0, got %v", cfg.TTL)
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultSessionTTL
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	pipe, err := segmentation.New(cfg.Seg)
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Sessions{
		cfg:         cfg,
		pipe:        pipe,
		clock:       clock,
		sessions:    make(map[string]*Session),
		memo:        make(map[string]string),
		janitorStop: make(chan struct{}),
	}
	s.janitor.Add(1)
	go s.runJanitor()
	return s, nil
}

// Open starts a new ingest session.
func (s *Sessions) Open() (*Session, error) {
	id, err := newSessionID()
	if err != nil {
		return nil, err
	}
	sess := &Session{
		id:      id,
		owner:   s,
		eager:   make(map[int]eagerResult),
		expires: s.clock().Add(s.cfg.TTL),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions == nil {
		return nil, errors.New("artifacts: ingest layer is closed")
	}
	if s.openLocked() >= s.cfg.MaxSessions {
		s.sweepLocked(s.clock())
		if s.openLocked() >= s.cfg.MaxSessions {
			return nil, fmt.Errorf("artifacts: too many open ingest sessions (max %d)", s.cfg.MaxSessions)
		}
	}
	s.sessions[id] = sess
	s.opened.Add(1)
	return sess, nil
}

// Get returns the session with the given id; ok is false for unknown or
// expired sessions (expiry is also checked lazily here, so a just-expired
// session never answers between janitor sweeps).
func (s *Sessions) Get(id string) (*Session, bool) {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, false
	}
	if sess.expired(now) {
		delete(s.sessions, id)
		s.expired.Add(1)
		return nil, false
	}
	return sess, true
}

// Memo returns the silhouettes-artifact hash memoised for a frames-artifact
// hash by a sealed session, if any.
func (s *Sessions) Memo(framesHash string) (string, bool) {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	h, ok := s.memo[framesHash]
	return h, ok
}

// recordMemo registers a frames→silhouettes association, evicting the
// oldest beyond the registry bound.
func (s *Sessions) recordMemo(framesHash, silsHash string) {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if _, ok := s.memo[framesHash]; !ok {
		s.memoOrder = append(s.memoOrder, framesHash)
		for len(s.memoOrder) > memoCap {
			delete(s.memo, s.memoOrder[0])
			s.memoOrder = s.memoOrder[1:]
		}
	}
	s.memo[framesHash] = silsHash
}

// Metrics returns a snapshot of the ingest counters.
func (s *Sessions) Metrics() SessionMetrics {
	s.mu.Lock()
	s.sweepLocked(s.clock())
	open := s.openLocked()
	s.mu.Unlock()
	return SessionMetrics{
		Open:             open,
		Opened:           s.opened.Load(),
		Sealed:           s.sealedN.Load(),
		Expired:          s.expired.Load(),
		FramesIngested:   s.framesIngested.Load(),
		EagerSegmented:   s.eagerSegmented.Load(),
		EagerReused:      s.eagerReused.Load(),
		EagerResegmented: s.eagerResegmented.Load(),
	}
}

// Close stops the janitor and drops every open session. Idempotent.
func (s *Sessions) Close() {
	s.mu.Lock()
	if s.sessions == nil {
		s.mu.Unlock()
		return
	}
	s.sessions = nil
	s.mu.Unlock()
	close(s.janitorStop)
	s.janitor.Wait()
}

func (s *Sessions) runJanitor() {
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
			s.mu.Lock()
			s.sweepLocked(s.clock())
			s.mu.Unlock()
		}
	}
}

// openLocked counts the unsealed sessions. Caller holds mu.
func (s *Sessions) openLocked() int {
	n := 0
	for _, sess := range s.sessions {
		if !sess.isSealed() {
			n++
		}
	}
	return n
}

// sweepLocked drops expired sessions. Caller holds mu.
func (s *Sessions) sweepLocked(now time.Time) {
	for id, sess := range s.sessions {
		if sess.expired(now) {
			delete(s.sessions, id)
			s.expired.Add(1)
		}
	}
}

func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("artifacts: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// eagerResult is one frame's speculative segmentation, tagged with the
// content hash of the prefix background it was computed against.
type eagerResult struct {
	bgHash cache.Key
	sil    segmentation.Silhouette
}

// Session is one in-flight chunked clip upload.
type Session struct {
	id    string
	owner *Sessions

	// sealMu serialises Seal (so a concurrent second Seal waits and then
	// returns the idempotent document instead of racing the first).
	sealMu sync.Mutex

	mu      sync.Mutex
	frames  []*imaging.Image
	chunks  int
	eager   map[int]eagerResult
	sealing bool
	sealed  *SealDoc
	// eagerN is len(eager) at seal time: Seal releases the frames and the
	// speculative results, and Status still reports them.
	eagerN  int
	expires time.Time

	// pending tracks in-flight speculative segmentation goroutines.
	pending sync.WaitGroup
}

// ID returns the session identifier.
func (ss *Session) ID() string { return ss.id }

func (ss *Session) isSealed() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sealed != nil
}

func (ss *Session) expired(now time.Time) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return now.After(ss.expires)
}

// Append adds one chunk of frames to the session. Chunks are numbered from
// zero and must arrive in order — an out-of-sequence chunk is rejected with
// an OutOfOrderError naming the expected index, and a sealed session
// rejects every append. The new frames start segmenting speculatively in
// the background immediately; only Seal waits for anything.
func (ss *Session) Append(chunk int, frames []*imaging.Image) error {
	if len(frames) == 0 {
		return errors.New("artifacts: empty chunk")
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.sealed != nil || ss.sealing {
		return ErrSessionSealed
	}
	if chunk != ss.chunks {
		return &OutOfOrderError{Got: chunk, Expected: ss.chunks}
	}
	for _, f := range frames {
		if len(ss.frames) > 0 && !ss.frames[0].SameSize(f) {
			return fmt.Errorf("artifacts: chunk %d frame is %dx%d, clip is %dx%d: %w",
				chunk, f.W, f.H, ss.frames[0].W, ss.frames[0].H, imaging.ErrSizeMismatch)
		}
		ss.frames = append(ss.frames, f)
	}
	ss.chunks++
	ss.expires = ss.owner.clock().Add(ss.owner.cfg.TTL)
	ss.owner.framesIngested.Add(uint64(len(frames)))

	// Speculatively segment the new frames against the background estimated
	// over everything received so far. The prefix slice is a stable
	// read-only view: frames are append-only and never mutated.
	prefix := ss.frames[:len(ss.frames):len(ss.frames)]
	start := len(prefix) - len(frames)
	ss.pending.Add(1)
	go ss.eagerSegment(prefix, start)
	return nil
}

// eagerSegment runs the speculative segmentation of frames [start, len) of
// the prefix. Errors are swallowed: a failed speculation just means those
// frames re-segment at seal, where errors do surface.
func (ss *Session) eagerSegment(prefix []*imaging.Image, start int) {
	defer ss.pending.Done()
	bg, err := ss.owner.pipe.EstimateBackground(prefix)
	if err != nil {
		return
	}
	tag := imageHash(bg)
	results := make(map[int]eagerResult, len(prefix)-start)
	for i := start; i < len(prefix); i++ {
		st, err := ss.owner.pipe.SegmentFrame(prefix[i], bg)
		if err != nil {
			continue
		}
		results[i] = eagerResult{bgHash: tag, sil: segmentation.NewSilhouette(i, st.Object)}
	}
	ss.mu.Lock()
	for i, r := range results {
		ss.eager[i] = r
	}
	ss.mu.Unlock()
	ss.owner.eagerSegmented.Add(uint64(len(results)))
}

// Status reports the session's progress; the overlap tests poll it to
// observe early-chunk segmentation completing before later chunks upload.
func (ss *Session) Status() SessionStatus {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st := SessionStatus{
		ClipID:         ss.id,
		Frames:         len(ss.frames),
		Chunks:         ss.chunks,
		EagerSegmented: len(ss.eager),
	}
	if ss.sealed != nil {
		st.Frames, st.EagerSegmented, st.Sealed = ss.sealed.Frames, ss.eagerN, true
	}
	return st
}

// Seal closes the session: it waits for in-flight speculation, estimates
// the final background over the complete clip, keeps every speculative
// silhouette whose background tag matches it (re-segmenting the rest),
// stores the frames and segmentation artifacts, registers the
// frames→silhouettes memo, and returns the seal document. Seal is
// idempotent — a second call returns the same document without redoing any
// work — and a failed seal leaves the session open for retry. A sealed
// session releases its frames and speculative results (the store holds
// the artifacts) and stops counting against MaxSessions.
func (ss *Session) Seal() (*SealDoc, error) {
	ss.sealMu.Lock()
	defer ss.sealMu.Unlock()

	ss.mu.Lock()
	if ss.sealed != nil {
		doc := ss.sealed
		ss.mu.Unlock()
		return doc, nil
	}
	if len(ss.frames) == 0 {
		ss.mu.Unlock()
		return nil, errors.New("artifacts: cannot seal a session with no frames")
	}
	ss.sealing = true // Append now rejects; pending can only drain
	frames := ss.frames[:len(ss.frames):len(ss.frames)]
	ss.mu.Unlock()

	doc, err := ss.seal(frames)
	ss.mu.Lock()
	if err != nil {
		ss.sealing = false
	} else {
		ss.sealed = doc
		ss.eagerN = len(ss.eager)
		ss.frames, ss.eager = nil, nil
		ss.expires = ss.owner.clock().Add(ss.owner.cfg.TTL)
	}
	ss.mu.Unlock()
	if err != nil {
		return nil, err
	}
	ss.owner.sealedN.Add(1)
	return doc, nil
}

func (ss *Session) seal(frames []*imaging.Image) (*SealDoc, error) {
	ss.pending.Wait()

	bg, err := ss.owner.pipe.EstimateBackground(frames)
	if err != nil {
		return nil, err
	}
	finalTag := imageHash(bg)

	ss.mu.Lock()
	eager := make(map[int]eagerResult, len(ss.eager))
	for i, r := range ss.eager {
		eager[i] = r
	}
	ss.mu.Unlock()

	sils := make([]segmentation.Silhouette, len(frames))
	reused, resegmented := 0, 0
	for i := range frames {
		if r, ok := eager[i]; ok && r.bgHash == finalTag {
			sils[i] = r.sil
			reused++
			continue
		}
		st, err := ss.owner.pipe.SegmentFrame(frames[i], bg)
		if err != nil {
			return nil, fmt.Errorf("artifacts: seal frame %d: %w", i, err)
		}
		sils[i] = segmentation.NewSilhouette(i, st.Object)
		resegmented++
	}

	framesBlob, err := EncodeFrames(frames)
	if err != nil {
		return nil, err
	}
	framesHash, err := ss.owner.cfg.Store.Put(framesBlob)
	if err != nil {
		return nil, err
	}
	silsBlob, err := EncodeSilhouettes(bg, sils)
	if err != nil {
		return nil, err
	}
	silsHash, err := ss.owner.cfg.Store.Put(silsBlob)
	if err != nil {
		return nil, err
	}
	ss.owner.recordMemo(framesHash, silsHash)
	ss.owner.eagerReused.Add(uint64(reused))
	ss.owner.eagerResegmented.Add(uint64(resegmented))
	return &SealDoc{
		ClipID:           ss.id,
		FramesHash:       framesHash,
		SilhouettesHash:  silsHash,
		Frames:           len(frames),
		EagerReused:      reused,
		EagerResegmented: resegmented,
	}, nil
}

// imageHash content-addresses one image (the background tag).
func imageHash(img *imaging.Image) cache.Key {
	k := cache.NewKeyer()
	k.WriteInt(img.W)
	k.WriteInt(img.H)
	buf := make([]byte, 0, 3*len(img.Pix))
	for _, px := range img.Pix {
		buf = append(buf, px.R, px.G, px.B)
	}
	k.WriteBytes(buf)
	return k.Sum()
}
