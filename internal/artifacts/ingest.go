// Streaming clip ingest: chunked upload sessions over the artifact store.
//
// A session accepts a clip as ordered frame chunks and holds the frames
// until seal, which stores them as one frames artifact and nothing else.
// Nothing is segmented here, neither during the upload nor at seal: the
// paper's pipeline is batch — Step 1 estimates the background over the
// *whole* sequence, and Steps 2-5 segment every frame against it — and
// that step runs once, inside the analysis of the sealed clip, on
// whichever node executes it (DESIGN.md §14). Append refuses a chunk that
// would make the frames artifact larger than the store can hold, so every
// clip a session accepts can be sealed.
package artifacts

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

// DefaultSessionTTL expires idle ingest sessions (the clip never sealed).
const DefaultSessionTTL = 15 * time.Minute

// DefaultMaxSessions bounds concurrently open (unsealed) sessions.
const DefaultMaxSessions = 64

// SessionConfig parameterises the ingest session layer.
type SessionConfig struct {
	// Store receives the sealed frames artifacts. Required.
	Store *Store
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
	Open           int    `json:"open"`
	Opened         uint64 `json:"opened"`
	Sealed         uint64 `json:"sealed"`
	Expired        uint64 `json:"expired"`
	FramesIngested uint64 `json:"frames_ingested"`
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

// ErrClipTooLarge rejects a chunk that would make the clip's sealed
// frames artifact larger than the store's byte capacity. The session keeps
// the frames it already holds, so it can still be sealed.
var ErrClipTooLarge = errors.New("artifacts: clip too large for the artifact store")

// ErrEmptySession rejects sealing a session that holds no frames.
var ErrEmptySession = errors.New("artifacts: cannot seal a session with no frames")

// SealDoc is the terminal document of one ingest session: the content
// hash a by-hash analysis request needs.
type SealDoc struct {
	ClipID     string `json:"clip_id"`
	FramesHash string `json:"frames_hash"`
	Frames     int    `json:"frames"`
}

// SessionStatus reports one session's progress.
type SessionStatus struct {
	ClipID string `json:"clip_id"`
	Frames int    `json:"frames"`
	Chunks int    `json:"chunks"`
	Sealed bool   `json:"sealed"`
}

// Sessions manages the open ingest sessions of one server.
type Sessions struct {
	cfg   SessionConfig
	clock func() time.Time

	mu       sync.Mutex
	sessions map[string]*Session

	opened         atomic.Uint64
	sealedN        atomic.Uint64
	expired        atomic.Uint64
	framesIngested atomic.Uint64

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
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Sessions{
		cfg:         cfg,
		clock:       clock,
		sessions:    make(map[string]*Session),
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

// Metrics returns a snapshot of the ingest counters.
func (s *Sessions) Metrics() SessionMetrics {
	s.mu.Lock()
	s.sweepLocked(s.clock())
	open := s.openLocked()
	s.mu.Unlock()
	return SessionMetrics{
		Open:           open,
		Opened:         s.opened.Load(),
		Sealed:         s.sealedN.Load(),
		Expired:        s.expired.Load(),
		FramesIngested: s.framesIngested.Load(),
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
	sealing bool
	sealed  *SealDoc
	expires time.Time
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
// rejects every append. A chunk whose frames differ in size from the clip,
// or that would make the sealed frames artifact exceed the store's
// capacity (ErrClipTooLarge), is rejected whole: the session is left as it
// was.
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
	ref := frames[0]
	if len(ss.frames) > 0 {
		ref = ss.frames[0]
	}
	for _, f := range frames {
		if !ref.SameSize(f) {
			return fmt.Errorf("artifacts: chunk %d frame is %dx%d, clip is %dx%d: %w",
				chunk, f.W, f.H, ref.W, ref.H, imaging.ErrSizeMismatch)
		}
	}
	n := len(ss.frames) + len(frames)
	if need, capacity := sealBytes(n, ref.W, ref.H), ss.owner.cfg.Store.Config().MaxBytes; need > capacity {
		return fmt.Errorf("%w: %d frames of %dx%d seal into %d bytes, the store holds %d",
			ErrClipTooLarge, n, ref.W, ref.H, need, capacity)
	}
	ss.frames = append(ss.frames, frames...)
	ss.chunks++
	ss.expires = ss.owner.clock().Add(ss.owner.cfg.TTL)
	ss.owner.framesIngested.Add(uint64(len(frames)))
	return nil
}

// sealBytes is what Seal stores for an n-frame clip of w×h frames: the
// frames blob (EncodeFrames).
func sealBytes(n, w, h int) int64 {
	return headerLen + 4 + int64(n)*(8+3*int64(w)*int64(h))
}

// Status reports the session's progress.
func (ss *Session) Status() SessionStatus {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st := SessionStatus{ClipID: ss.id, Frames: len(ss.frames), Chunks: ss.chunks}
	if ss.sealed != nil {
		st.Frames, st.Sealed = ss.sealed.Frames, true
	}
	return st
}

// Seal closes the session: it stores the complete clip as one frames
// artifact and returns the seal document. Sealing a session with no frames
// fails with ErrEmptySession; any other error is the store's. Seal is
// idempotent — a second call returns the same document without redoing
// any work — and a failed seal leaves the session open for retry. A sealed
// session releases its frames (the store holds the artifact) and stops
// counting against MaxSessions.
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
		return nil, ErrEmptySession
	}
	ss.sealing = true // Append now rejects
	frames := ss.frames[:len(ss.frames):len(ss.frames)]
	ss.mu.Unlock()

	doc, err := ss.seal(frames)
	ss.mu.Lock()
	if err != nil {
		ss.sealing = false
	} else {
		ss.sealed = doc
		ss.frames = nil
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
	blob, err := EncodeFrames(frames)
	if err != nil {
		return nil, err
	}
	hash, err := ss.owner.cfg.Store.Put(blob)
	if err != nil {
		return nil, err
	}
	return &SealDoc{ClipID: ss.id, FramesHash: hash, Frames: len(frames)}, nil
}
