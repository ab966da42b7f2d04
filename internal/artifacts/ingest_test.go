package artifacts

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
)

func newTestSessions(t *testing.T, cfg SessionConfig) (*Sessions, *Store) {
	t.Helper()
	if cfg.Store == nil {
		store, err := NewStore(Config{MaxBlobs: 32, MaxBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(store.Close)
		cfg.Store = store
	}
	s, err := NewSessions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, cfg.Store
}

func TestSessionRejectsOutOfOrderChunk(t *testing.T) {
	s, _ := newTestSessions(t, SessionConfig{})
	sess, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(2, 16, 8)

	err = sess.Append(1, frames)
	var ooo *OutOfOrderError
	if !errors.As(err, &ooo) {
		t.Fatalf("Append(1) on a fresh session: %v, want OutOfOrderError", err)
	}
	if ooo.Got != 1 || ooo.Expected != 0 {
		t.Fatalf("OutOfOrderError = %+v, want Got=1 Expected=0", ooo)
	}
	if err := sess.Append(0, frames); err != nil {
		t.Fatal(err)
	}
	// Replaying an already-accepted chunk is also out of order.
	if err := sess.Append(0, frames); !errors.As(err, &ooo) || ooo.Expected != 1 {
		t.Fatalf("replayed chunk: %v, want OutOfOrderError with Expected=1", err)
	}
	if err := sess.Append(2, nil); err == nil {
		t.Fatal("empty chunk accepted")
	}
}

func TestSessionRejectsMismatchedFrameSize(t *testing.T) {
	s, _ := newTestSessions(t, SessionConfig{})
	sess, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(0, testFrames(2, 16, 8)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(1, testFrames(1, 32, 8)); !errors.Is(err, imaging.ErrSizeMismatch) {
		t.Fatalf("mismatched frame size: %v, want ErrSizeMismatch", err)
	}
	// A mismatch inside a chunk refuses the whole chunk: none of its frames
	// join the clip, so a corrected retry of the same index is accepted.
	mixed := append(testFrames(1, 16, 8), testFrames(1, 32, 8)...)
	if err := sess.Append(1, mixed); !errors.Is(err, imaging.ErrSizeMismatch) {
		t.Fatalf("mismatch inside a chunk: %v, want ErrSizeMismatch", err)
	}
	if st := sess.Status(); st.Frames != 2 || st.Chunks != 1 {
		t.Fatalf("status after a refused chunk = %+v, want 2 frames in 1 chunk", st)
	}
	if err := sess.Append(1, testFrames(1, 16, 8)); err != nil {
		t.Fatalf("retried chunk: %v", err)
	}
}

func TestSealIdempotentAndAppendAfterSealRejected(t *testing.T) {
	s, store := newTestSessions(t, SessionConfig{})
	sess, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(5, 64, 16)
	if err := sess.Append(0, frames[:3]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(1, frames[3:]); err != nil {
		t.Fatal(err)
	}
	doc, err := sess.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Frames != 5 || doc.FramesHash == "" {
		t.Fatalf("seal doc = %+v", doc)
	}
	// Seal stores exactly one blob: the frames artifact, the canonical
	// encoding of what was appended. Nothing is segmented.
	if m := store.Metrics(); m.Blobs != 1 || m.Stored != 1 {
		t.Fatalf("store after seal = %+v, want exactly the frames blob", m)
	}
	blob, kind, ok := store.Get(doc.FramesHash)
	if !ok || kind != KindFrames {
		t.Fatalf("frames artifact: kind %q, ok %v", kind, ok)
	}
	want, err := EncodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatal("frames artifact differs from the appended frames")
	}

	// Sealing again returns the same document without re-running anything.
	again, err := sess.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if *again != *doc {
		t.Fatalf("second seal = %+v, want %+v", again, doc)
	}
	if m := s.Metrics(); m.Sealed != 1 {
		t.Fatalf("sealed counter = %d after an idempotent reseal, want 1", m.Sealed)
	}
	if err := sess.Append(2, frames[:1]); !errors.Is(err, ErrSessionSealed) {
		t.Fatalf("append after seal: %v, want ErrSessionSealed", err)
	}
}

func TestSealConcurrentCallsAgree(t *testing.T) {
	s, _ := newTestSessions(t, SessionConfig{})
	sess, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(0, testFrames(4, 64, 16)); err != nil {
		t.Fatal(err)
	}
	const n = 4
	docs := make([]*SealDoc, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			docs[i], _ = sess.Seal()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if docs[i] == nil || *docs[i] != *docs[0] {
			t.Fatalf("concurrent seal %d = %+v, want %+v", i, docs[i], docs[0])
		}
	}
	if m := s.Metrics(); m.Sealed != 1 {
		t.Fatalf("sealed counter = %d after concurrent seals, want 1", m.Sealed)
	}
}

func TestSealEmptySessionFails(t *testing.T) {
	s, _ := newTestSessions(t, SessionConfig{})
	sess, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Seal(); !errors.Is(err, ErrEmptySession) {
		t.Fatalf("seal of an empty session: %v, want ErrEmptySession", err)
	}
}

func TestSessionTTLExpiryMidUpload(t *testing.T) {
	now := time.Unix(5000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	s, _ := newTestSessions(t, SessionConfig{TTL: time.Minute, Clock: clock})
	sess, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(0, testFrames(2, 16, 8)); err != nil {
		t.Fatal(err)
	}
	// Each append refreshes the deadline: half a TTL later the session is
	// still reachable...
	advance(30 * time.Second)
	if _, ok := s.Get(sess.ID()); !ok {
		t.Fatal("session expired with half its TTL remaining")
	}
	// ...but a full idle TTL mid-upload expires it, frames and all.
	advance(2 * time.Minute)
	if _, ok := s.Get(sess.ID()); ok {
		t.Fatal("session survived past its idle TTL")
	}
	m := s.Metrics()
	if m.Expired != 1 || m.Open != 0 {
		t.Fatalf("metrics = %+v, want one expired session and none open", m)
	}
}

func TestOpenAfterCloseFails(t *testing.T) {
	store, err := NewStore(Config{MaxBlobs: 4, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s, err := NewSessions(SessionConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Open(); err == nil {
		t.Fatal("Open succeeded on a closed ingest layer")
	}
}

// TestAppendRejectsClipPastStoreCapacity: a chunk that would make the sealed
// frames artifact larger than the store is refused with ErrClipTooLarge and
// leaves the session as it was, so what it already holds still seals.
func TestAppendRejectsClipPastStoreCapacity(t *testing.T) {
	const w, h = 16, 8
	store, err := NewStore(Config{MaxBlobs: 8, MaxBytes: sealBytes(4, w, h)})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s, _ := newTestSessions(t, SessionConfig{Store: store})
	sess, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(5, w, h)
	if err := sess.Append(0, frames[:3]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(1, frames[3:5]); !errors.Is(err, ErrClipTooLarge) {
		t.Fatalf("append past capacity: %v, want ErrClipTooLarge", err)
	}
	if st := sess.Status(); st.Frames != 3 || st.Chunks != 1 {
		t.Fatalf("status after a refused chunk = %+v, want 3 frames in 1 chunk", st)
	}
	if err := sess.Append(1, frames[3:4]); err != nil {
		t.Fatalf("append up to capacity: %v", err)
	}
	doc, err := sess.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Frames != 4 {
		t.Fatalf("sealed %d frames, want 4", doc.Frames)
	}
	if _, _, ok := store.Get(doc.FramesHash); !ok {
		t.Fatal("frames artifact missing from a store sized to hold it")
	}
}

// TestSealBytesMatchesEncoders pins sealBytes to the encoder it predicts.
func TestSealBytesMatchesEncoders(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		fb, err := EncodeFrames(testFrames(n, 13, 7))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sealBytes(n, 13, 7), int64(len(fb)); got != want {
			t.Fatalf("sealBytes(%d, 13, 7) = %d, encoders wrote %d", n, got, want)
		}
	}
}

// TestPayloadRequestResolvesFramesRef: a wire payload naming its frames by
// hash decodes into the request with the stored frames materialised; an
// unknown hash is ErrNotFound, and a payload carrying both inline frames
// and a frames ref is refused.
func TestPayloadRequestResolvesFramesRef(t *testing.T) {
	store, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	frames := testFrames(3, 32, 16)
	blob, err := EncodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := store.Put(blob)
	if err != nil {
		t.Fatal(err)
	}

	req, err := PayloadRequest(store, jobs.Payload{Kind: jobs.KindAnalysis, FramesRef: hash})
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Frames) != 3 {
		t.Fatalf("resolved request has %d frames, want 3", len(req.Frames))
	}
	for i := range frames {
		if !sameImage(req.Frames[i], frames[i]) {
			t.Fatalf("frame %d differs after resolution", i)
		}
	}
	unknown := jobs.Payload{Kind: jobs.KindAnalysis, FramesRef: strings.Repeat("f", 64)}
	if _, err := PayloadRequest(store, unknown); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown ref: %v, want ErrNotFound", err)
	}
	conflicted, err := jobs.NewAnalysisPayload("cfg", core.Request{Frames: frames})
	if err != nil {
		t.Fatal(err)
	}
	conflicted.FramesRef = hash
	if _, err := PayloadRequest(store, conflicted); err == nil {
		t.Fatal("accepted a payload with both inline frames and a frames ref")
	}
}

// TestCheckFramesCopiesNothing: CheckFrames accepts a stored frames blob
// and answers as ResolveFrames does otherwise — an unknown hash wraps
// ErrNotFound; a result blob or a truncated frames blob is an error that
// does not.
func TestCheckFramesCopiesNothing(t *testing.T) {
	store, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	blob, err := EncodeFrames(testFrames(3, 7, 5))
	if err != nil {
		t.Fatal(err)
	}
	good, err := store.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFrames(store, good); err != nil {
		t.Fatalf("a stored frames blob: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = CheckFrames(store, good) }); allocs > 2 {
		t.Errorf("CheckFrames allocates %.0f times per call; it must copy no frame", allocs)
	}
	if err := CheckFrames(store, strings.Repeat("f", 64)); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown hash: %v, want ErrNotFound", err)
	}
	result, err := store.Put(EncodeResult(testKey(1), []byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	truncated, err := store.Put(blob[:len(blob)-1])
	if err != nil {
		t.Fatal(err)
	}
	for name, hash := range map[string]string{"result": result, "truncated": truncated} {
		if err := CheckFrames(store, hash); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("%s blob: %v, want a malformed-blob error", name, err)
		}
	}
}

// TestSealedSessionsLeaveTheTable: a sealed session stops counting against
// MaxSessions, so 100 upload+seal cycles inside one TTL all succeed, while
// the bound on unsealed sessions still holds. A sealed session keeps only
// its seal document: re-seal and Status still answer.
func TestSealedSessionsLeaveTheTable(t *testing.T) {
	s, _ := newTestSessions(t, SessionConfig{})
	var sealed []*Session
	for i := 0; i < 100; i++ {
		sess, err := s.Open()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := sess.Append(0, testFrames(2, 16, 8)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Seal(); err != nil {
			t.Fatalf("cycle %d: seal: %v", i, err)
		}
		sealed = append(sealed, sess)
	}
	if m := s.Metrics(); m.Open != 0 || m.Sealed != 100 {
		t.Fatalf("metrics = %+v, want 100 sealed and none open", m)
	}
	for _, sess := range sealed {
		got, ok := s.Get(sess.ID())
		if !ok {
			t.Fatal("sealed session dropped before its TTL")
		}
		first, _ := got.Seal()
		again, err := got.Seal()
		if err != nil || again != first {
			t.Fatalf("re-seal = %v, %v; want the same document", again, err)
		}
		if st := got.Status(); !st.Sealed || st.Frames != 2 || st.Chunks != 1 {
			t.Fatalf("sealed status = %+v", st)
		}
		got.mu.Lock()
		released := got.frames == nil
		got.mu.Unlock()
		if !released {
			t.Fatal("sealed session still holds its frames")
		}
	}

	for i := 0; i < DefaultMaxSessions; i++ {
		if _, err := s.Open(); err != nil {
			t.Fatalf("unsealed session %d: %v", i, err)
		}
	}
	if _, err := s.Open(); err == nil {
		t.Fatalf("session %d opened past the bound on unsealed sessions", DefaultMaxSessions+1)
	}
}
