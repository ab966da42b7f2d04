package artifacts

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/cache"
)

// testKey returns a distinct request key.
func testKey(i int) cache.Key {
	k := cache.NewKeyer()
	k.WriteInt(i)
	return k.Sum()
}

// putResult stores one result blob and returns its hash.
func putResult(t *testing.T, s *Store, key cache.Key, doc string) string {
	t.Helper()
	hash, err := s.Put(EncodeResult(key, []byte(doc)))
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// resultDoc looks a key up and returns its document ("" on a miss).
func resultDoc(s *Store, key cache.Key) string {
	_, blob, ok := s.Result(key)
	if !ok {
		return ""
	}
	return string(ResultDoc(blob))
}

func TestResultRoundTrip(t *testing.T) {
	key := testKey(1)
	doc := []byte("{\n  \"score\": \"7/7\"\n}\n")
	blob := EncodeResult(key, doc)
	if kind, ok := KindOf(blob); !ok || kind != KindResult {
		t.Fatalf("KindOf = %q, %v", kind, ok)
	}
	gotKey, gotDoc, err := DecodeResult(blob)
	if err != nil || gotKey != key || !bytes.Equal(gotDoc, doc) {
		t.Fatalf("DecodeResult = %s, %q, %v", gotKey, gotDoc, err)
	}
	if !bytes.Equal(ResultDoc(blob), doc) {
		t.Fatalf("ResultDoc = %q", ResultDoc(blob))
	}
}

func TestDecodeResultRejectsMalformed(t *testing.T) {
	key := testKey(1)
	good := EncodeResult(key, []byte(`{"a":1}`))
	frames, err := EncodeFrames(testFrames(1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		"short key":     good[:ResultDocOffset-1],
		"no document":   good[:ResultDocOffset],
		"invalid JSON":  EncodeResult(key, []byte(`{"a":`)),
		"trailing data": EncodeResult(key, []byte(`{"a":1} x`)),
		"wrong kind":    frames,
	} {
		if _, _, err := DecodeResult(blob); err == nil {
			t.Errorf("%s: DecodeResult accepted the blob", name)
		}
	}
}

func TestPutRejectsShortResult(t *testing.T) {
	s, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	short := EncodeResult(testKey(1), nil)[:ResultDocOffset-1]
	if _, err := s.Put(short); err == nil {
		t.Fatal("Put accepted a result blob shorter than its key")
	}
	if m := s.Metrics(); m.Stored != 0 {
		t.Fatalf("metrics = %+v, want nothing stored", m)
	}
}

func TestResultHitMissCounters(t *testing.T) {
	s, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if resultDoc(s, testKey(1)) != "" {
		t.Fatal("empty store answered a result")
	}
	hash := putResult(t, s, testKey(1), `{"a":1}`)
	got, blob, ok := s.Result(testKey(1))
	if !ok || got != hash || HashOf(blob) != hash {
		t.Fatalf("Result = %s, %v; want the stored blob %s", got, ok, hash)
	}
	if resultDoc(s, testKey(2)) != "" {
		t.Fatal("an unknown key answered a result")
	}
	m := s.ResultMetrics()
	if m != (ResultMetrics{Entries: 1, Hits: 1, Misses: 2, Stored: 1}) {
		t.Fatalf("result metrics = %+v", m)
	}
}

// TestResultNewestBlobWins: recomputing a key stores a second blob (the
// stage_ms timings differ), and the newest Put is the answer; dropping the
// older blob leaves the index alone.
func TestResultNewestBlobWins(t *testing.T) {
	s, err := NewStore(Config{MaxBlobs: 2, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := testKey(1)
	putResult(t, s, key, `{"run":1}`)
	putResult(t, s, key, `{"run":2}`)
	if got := resultDoc(s, key); got != `{"run":2}` {
		t.Fatalf("Result = %q, want the newest document", got)
	}
	putResult(t, s, key, `{"run":1}`) // a re-put refreshes and re-points
	if got := resultDoc(s, key); got != `{"run":1}` {
		t.Fatalf("Result = %q, want the re-put document", got)
	}
	// A third blob evicts the least recently used one ({"run":2}), which
	// the index no longer names.
	putResult(t, s, testKey(2), `{"other":true}`)
	if got := resultDoc(s, key); got != `{"run":1}` {
		t.Fatalf("Result = %q after evicting the stale blob", got)
	}
}

func TestResultIndexDropsLRUEvictedBlob(t *testing.T) {
	for _, spill := range []bool{false, true} {
		cfg := Config{MaxBlobs: 1, MaxBytes: 1 << 20}
		if spill {
			cfg.SpillDir = t.TempDir()
		}
		s, err := NewStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		putResult(t, s, testKey(1), `{"a":1}`)
		putResult(t, s, testKey(2), `{"b":2}`) // evicts the first from memory
		got := resultDoc(s, testKey(1))
		if spill && got != `{"a":1}` {
			t.Errorf("spill: evicted result not served from the spill tier (%q)", got)
		}
		if !spill {
			if got != "" {
				t.Errorf("evicted result still answered: %q", got)
			}
			if m := s.ResultMetrics(); m.Entries != 1 {
				t.Errorf("result entries = %d, want only the resident one", m.Entries)
			}
		}
		s.Close()
	}
}

func TestResultIndexDropsExpiredBlob(t *testing.T) {
	now := time.Unix(1000, 0)
	s, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20, TTL: time.Minute,
		SpillDir: t.TempDir(), Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putResult(t, s, testKey(1), `{"a":1}`)
	now = now.Add(59 * time.Second)
	if resultDoc(s, testKey(1)) == "" {
		t.Fatal("result expired before its TTL")
	}
	now = now.Add(2 * time.Minute)
	if m := s.ResultMetrics(); m.Entries != 0 {
		t.Fatalf("result entries = %d after expiry, want 0", m.Entries)
	}
	if got := resultDoc(s, testKey(1)); got != "" {
		t.Fatalf("expired result answered: %q", got)
	}
}

func TestResultIndexDropsUnreadableSpill(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Config{MaxBlobs: 1, MaxBytes: 1 << 20, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hash := putResult(t, s, testKey(1), `{"a":1}`)
	putResult(t, s, testKey(2), `{"b":2}`) // the first now lives in the spill only
	if err := os.WriteFile(filepath.Join(dir, hash), []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := resultDoc(s, testKey(1)); got != "" {
		t.Fatalf("corrupt spilled result answered: %q", got)
	}
	if m := s.ResultMetrics(); m.Entries != 1 {
		t.Fatalf("result entries = %d, want the unreadable one dropped", m.Entries)
	}
}

func TestResultConcurrentAccess(t *testing.T) {
	s, err := NewStore(Config{MaxBlobs: 16, MaxBytes: 1 << 20, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := testKey((g*200 + i) % 32)
				if _, err := s.Put(EncodeResult(key, []byte(`{"i":1}`))); err != nil {
					t.Error(err)
					return
				}
				s.Result(key)
				s.ResultMetrics()
			}
		}(g)
	}
	wg.Wait()
	if m := s.ResultMetrics(); m.Entries > 16 || m.Stored != 8*200 {
		t.Fatalf("result metrics = %+v", m)
	}
}

func TestStoreCloseIdempotentAndInert(t *testing.T) {
	s, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	putResult(t, s, testKey(1), `{"a":1}`)
	s.Close()
	s.Close()
	if got := resultDoc(s, testKey(1)); got != "" {
		t.Fatalf("closed store answered a result: %q", got)
	}
	if _, err := s.Put(EncodeResult(testKey(2), []byte(`{}`))); err == nil {
		t.Fatal("closed store accepted a Put")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, cfg := range map[string]Config{
		"zero blobs":   {MaxBlobs: 0, MaxBytes: 1},
		"zero bytes":   {MaxBlobs: 1, MaxBytes: 0},
		"negative TTL": {MaxBlobs: 1, MaxBytes: 1, TTL: -time.Second},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
}
