package artifacts

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
)

// testFrames builds a small deterministic clip: a dark block marching over
// a light background, one block-width per frame.
func testFrames(n, w, h int) []*imaging.Image {
	bg := imaging.Color{R: 200, G: 200, B: 200}
	fg := imaging.Color{R: 20, G: 20, B: 20}
	frames := make([]*imaging.Image, n)
	for k := range frames {
		f := imaging.NewImageFilled(w, h, bg)
		for y := h / 4; y < h/2; y++ {
			for x := k * 8; x < k*8+4 && x < w; x++ {
				f.Set(x, y, fg)
			}
		}
		frames[k] = f
	}
	return frames
}

func sameImage(a, b *imaging.Image) bool {
	if !a.SameSize(b) {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}

func TestFramesRoundTrip(t *testing.T) {
	frames := testFrames(3, 32, 16)
	blob, err := EncodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := KindOf(blob); !ok || k != KindFrames {
		t.Fatalf("KindOf = %q, %v; want %q, true", k, ok, KindFrames)
	}
	got, err := DecodeFrames(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range got {
		if !sameImage(got[i], frames[i]) {
			t.Fatalf("frame %d changed across the round trip", i)
		}
	}
	// Content addressing is deterministic: re-encoding yields the same hash.
	blob2, err := EncodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if HashOf(blob) != HashOf(blob2) {
		t.Fatal("re-encoding the same frames produced a different hash")
	}
}

// TestFramesHashMatchesArtifactHash pins the streamed request-key hash to
// the stored artifact: jobs.FramesHash writes the frames/v1 layout into
// SHA-256 without building the blob, and must name exactly the blob
// EncodeFrames stores — for a 1×1 clip, odd widths, one frame and twenty.
func TestFramesHashMatchesArtifactHash(t *testing.T) {
	for _, tc := range []struct{ n, w, h int }{
		{1, 1, 1}, {3, 1, 1}, {1, 7, 3}, {2, 33, 5}, {1, 32, 16}, {20, 31, 9}, {20, 160, 120},
	} {
		frames := testFrames(tc.n, tc.w, tc.h)
		blob, err := EncodeFrames(frames)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jobs.FramesHash(frames).String(), HashOf(blob); got != want {
			t.Errorf("%d frames of %dx%d: FramesHash = %s, HashOf(EncodeFrames) = %s", tc.n, tc.w, tc.h, got, want)
		}
	}
}

// TestRefKeyMatchesInlineKey: a request naming its frames by artifact hash
// keys exactly as the same request carrying the frames, so the two share
// one cache entry and one ring placement (the payload's CacheKey), and the
// key tracks the frames: another clip's hash keys differently.
func TestRefKeyMatchesInlineKey(t *testing.T) {
	frames := testFrames(4, 33, 17)
	blob, err := EncodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Frames: frames, IncludeSilhouettes: true, Stages: core.OnlyStage(core.StageSegmentation)}
	inline, err := jobs.NewAnalysisPayload("fp", req)
	if err != nil {
		t.Fatal(err)
	}
	thin := req
	thin.Frames = nil
	byRef, err := jobs.NewArtifactPayload("fp", HashOf(blob), thin)
	if err != nil {
		t.Fatal(err)
	}
	if inline.CacheKey != byRef.CacheKey || inline.CacheKey != jobs.RequestKey("fp", req).String() {
		t.Fatalf("inline key %s, by-reference key %s", inline.CacheKey, byRef.CacheKey)
	}
	other, err := EncodeFrames(testFrames(4, 33, 16))
	if err != nil {
		t.Fatal(err)
	}
	if k, err := jobs.RefKey("fp", HashOf(other), thin); err != nil || k.String() == byRef.CacheKey {
		t.Fatalf("another clip's ref keys to %s (%v), the same as this clip's", k, err)
	}
}

// reencoders decode a blob as one kind and encode what was accepted again.
// The codec is canonical, so an accepted blob must come back byte for byte.
var reencoders = map[Kind]func([]byte) ([]byte, error){
	KindFrames: func(blob []byte) ([]byte, error) {
		frames, err := DecodeFrames(blob)
		if err != nil {
			return nil, err
		}
		return EncodeFrames(frames)
	},
	KindResult: func(blob []byte) ([]byte, error) {
		key, doc, err := DecodeResult(blob)
		if err != nil {
			return nil, err
		}
		return EncodeResult(key, doc), nil
	},
}

// retag returns a copy of blob carrying kind tag instead of its own.
func retag(blob []byte, tag byte) []byte {
	out := bytes.Clone(blob)
	out[len(magic)] = tag
	return out
}

func TestDecodeRejectsCorruptBlobs(t *testing.T) {
	frames, err := EncodeFrames(testFrames(2, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := KindOf([]byte("not an artifact")); ok {
		t.Fatal("KindOf accepted garbage")
	}

	for _, tc := range []struct {
		name string
		kind Kind
		blob []byte
	}{
		{"truncated", KindFrames, frames[:len(frames)-3]},
		{"trailing bytes", KindFrames, append(bytes.Clone(frames), 0xFF)},
		// A frames blob is not a result blob: the kind tag must be honoured.
		{"wrong kind", KindResult, frames},
		// Tags 2 and 3 were silhouettes/v1 and poses/v1: retired, no kind.
		{"retired tag 2", KindFrames, retag(frames, 2)},
		{"retired tag 3", KindFrames, retag(frames, 3)},
	} {
		if _, err := reencoders[tc.kind](tc.blob); err == nil {
			t.Errorf("%s: decoding as %s accepted the blob", tc.name, tc.kind)
		}
	}
	for _, tag := range []byte{2, 3} {
		if k, ok := KindOf(retag(frames, tag)); ok {
			t.Errorf("KindOf read retired tag %d as %q", tag, k)
		}
	}
}

func TestStorePutGet(t *testing.T) {
	s, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	blob, err := EncodeFrames(testFrames(2, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := s.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	if hash != HashOf(blob) {
		t.Fatalf("Put returned %s, want the content hash %s", hash, HashOf(blob))
	}
	got, kind, ok := s.Get(hash)
	if !ok || kind != KindFrames || !bytes.Equal(got, blob) {
		t.Fatalf("Get(%s) = %d bytes, %q, %v", hash, len(got), kind, ok)
	}
	if _, _, ok := s.Get(strings.Repeat("0", 64)); ok {
		t.Fatal("Get answered for an unknown hash")
	}
	for _, bad := range [][]byte{[]byte("no header"), retag(blob, 2), retag(blob, 3)} {
		if _, err := s.Put(bad); err == nil {
			t.Fatalf("Put accepted %q..., a blob without a valid artifact header", bad[:headerLen])
		}
	}
	m := s.Metrics()
	if m.Blobs != 1 || m.Stored != 1 || m.Hits != 1 || m.Misses != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Bytes != int64(len(blob)) {
		t.Fatalf("metrics bytes = %d, want %d", m.Bytes, len(blob))
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := NewStore(Config{MaxBlobs: 2, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var hashes []string
	for n := 1; n <= 3; n++ {
		blob, err := EncodeFrames(testFrames(n, 16, 8))
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Put(blob)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	if _, _, ok := s.Get(hashes[0]); ok {
		t.Fatal("oldest blob survived past the blob capacity")
	}
	for _, h := range hashes[1:] {
		if _, _, ok := s.Get(h); !ok {
			t.Fatalf("recent blob %s was evicted", h)
		}
	}
	if m := s.Metrics(); m.EvictedLRU != 1 || m.Blobs != 2 {
		t.Fatalf("metrics = %+v, want one LRU eviction and two blobs", m)
	}
}

func TestStoreTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20, TTL: time.Minute, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	blob, err := EncodeFrames(testFrames(2, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := s.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(59 * time.Second)
	if _, _, ok := s.Get(hash); !ok {
		t.Fatal("blob expired before its TTL")
	}
	now = now.Add(2 * time.Minute) // Get refreshed nothing: TTL runs from Put
	if _, _, ok := s.Get(hash); ok {
		t.Fatal("blob survived past its TTL")
	}
	if m := s.Metrics(); m.EvictedTTL != 1 || m.Blobs != 0 {
		t.Fatalf("metrics = %+v, want one TTL eviction and zero blobs", m)
	}
}

func TestStoreSpillServesMemoryEvictions(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Config{MaxBlobs: 1, MaxBytes: 1 << 20, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := EncodeFrames(testFrames(1, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeFrames(testFrames(2, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := s.Put(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(second); err != nil {
		t.Fatal(err) // evicts h1 from memory; its spill file stays
	}
	if _, err := os.Stat(filepath.Join(dir, h1)); err != nil {
		t.Fatalf("spill file for the evicted blob: %v", err)
	}
	got, kind, ok := s.Get(h1)
	if !ok || kind != KindFrames || !bytes.Equal(got, first) {
		t.Fatalf("Get after LRU eviction = %d bytes, %q, %v; want the spilled blob", len(got), kind, ok)
	}
	m := s.Metrics()
	if m.SpillWrites != 2 || m.SpillReads != 1 {
		t.Fatalf("metrics = %+v, want 2 spill writes and 1 spill read", m)
	}
}

// TestSpillRetiredTagNeverServed: a spill file an older build wrote for a
// retired kind (tags 2 and 3) is a miss on both read paths, and either
// removes it.
func TestSpillRetiredTagNeverServed(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames, err := EncodeFrames(testFrames(1, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []byte{2, 3} {
		blob := retag(frames, tag)
		hash := HashOf(blob)
		path := filepath.Join(dir, hash)
		for _, read := range []struct {
			name string
			hit  func() bool
		}{
			{"Open", func() bool { _, _, _, ok := s.Open(hash); return ok }},
			{"Get", func() bool { _, _, ok := s.Get(hash); return ok }},
		} {
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			if read.hit() {
				t.Fatalf("tag %d: %s served a retired-kind spill file", tag, read.name)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("tag %d: retired-kind spill file still there after %s: %v", tag, read.name, err)
			}
		}
	}
	if m := s.Metrics(); m.Blobs != 0 || m.SpillReads != 0 {
		t.Fatalf("metrics = %+v, want nothing admitted or read", m)
	}
}

func TestStoreRejectsOversizedBlob(t *testing.T) {
	s, err := NewStore(Config{MaxBlobs: 4, MaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob, err := EncodeFrames(testFrames(2, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(blob); err == nil {
		t.Fatal("Put accepted a blob larger than the store's byte capacity")
	}
}

func TestStoreArtifactResolver(t *testing.T) {
	s, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob, err := EncodeFrames(testFrames(2, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := s.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Artifact(hash); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("Artifact(%s) = %d bytes, %v", hash, len(got), err)
	}
	if _, err := s.Artifact(strings.Repeat("a", 64)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Artifact(unknown) error = %v, want ErrNotFound", err)
	}
}

// TestStoreOpenStreamsWithoutLoading pins the streaming read path behind
// the HTTP Range route: a memory-resident blob opens as an in-memory
// reader, and a memory-evicted blob opens directly over its spill file —
// seekable, byte-identical, and never re-loaded into the memory tier.
func TestStoreOpenStreamsWithoutLoading(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Config{MaxBlobs: 1, MaxBytes: 1 << 20, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := EncodeFrames(testFrames(1, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeFrames(testFrames(2, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := s.Put(first)
	if err != nil {
		t.Fatal(err)
	}

	// Memory hit: served from the in-memory tier.
	rs, kind, size, ok := s.Open(h1)
	if !ok || kind != KindFrames || size != int64(len(first)) {
		t.Fatalf("Open(memory) = %v kind %q size %d", ok, kind, size)
	}
	got, err := io.ReadAll(rs)
	if err != nil || !bytes.Equal(got, first) {
		t.Fatalf("memory read: %v, %d bytes", err, len(got))
	}

	// Evict h1 from memory; only the spill file remains.
	if _, err := s.Put(second); err != nil {
		t.Fatal(err)
	}
	rs, kind, size, ok = s.Open(h1)
	if !ok || kind != KindFrames || size != int64(len(first)) {
		t.Fatalf("Open(spill) = %v kind %q size %d", ok, kind, size)
	}
	f, isFile := rs.(*os.File)
	if !isFile {
		t.Fatalf("spill open returned %T, want a streaming *os.File", rs)
	}
	defer f.Close()

	// Seekable partial read: the Range path never buffers the whole blob.
	if _, err := f.Seek(3, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	part := make([]byte, 4)
	if _, err := io.ReadFull(f, part); err != nil || !bytes.Equal(part, first[3:7]) {
		t.Fatalf("partial read at 3: %v %q want %q", err, part, first[3:7])
	}

	if m := s.Metrics(); m.SpillReads != 1 {
		t.Fatalf("spill reads = %d, want 1", m.SpillReads)
	}

	if _, _, _, ok := s.Open(strings.Repeat("0", 64)); ok {
		t.Fatal("Open of an unknown hash must miss")
	}
}
