package artifacts

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// testKey returns a distinct request key.
func testKey(i int) jobs.Key {
	k := jobs.NewKeyer()
	k.WriteInt(i)
	return k.Sum()
}

// putResult stores one result blob and returns its hash.
func putResult(t *testing.T, s *Store, key jobs.Key, doc string) string {
	t.Helper()
	hash, err := s.Put(EncodeResult(key, []byte(doc)))
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// resultDoc looks a key up and returns its document ("" on a miss).
func resultDoc(s *Store, key jobs.Key) string {
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

// TestPutSpillFailureLeavesNothing: a Put whose spill write fails (the
// spill directory replaced by a regular file) admits nothing — no memory
// entry, no result-index entry, no count — and a refresh of a stored blob
// that fails the same way counts nothing.
func TestPutSpillFailureLeavesNothing(t *testing.T) {
	spill := filepath.Join(t.TempDir(), "spill")
	s, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20, SpillDir: spill})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stored := EncodeResult(testKey(1), []byte(`{"a":1}`))
	if _, err := s.Put(stored); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(spill); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spill, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := EncodeResult(testKey(2), []byte(`{"b":2}`))
	if _, err := s.Put(fresh); err == nil {
		t.Fatal("Put succeeded with the spill directory replaced by a file")
	}
	if _, _, ok := s.Get(HashOf(fresh)); ok {
		t.Fatal("Get served the blob whose Put failed")
	}
	if got := resultDoc(s, testKey(2)); got != "" {
		t.Fatalf("Result answered for the blob whose Put failed: %q", got)
	}
	if _, err := s.Put(stored); err == nil {
		t.Fatal("refresh succeeded with the spill directory replaced by a file")
	}
	if m := s.Metrics(); m.Blobs != 1 || m.Stored != 1 {
		t.Fatalf("metrics = %+v, want the first blob alone, stored once", m)
	}
	if m := s.ResultMetrics(); m.Stored != 1 || m.Entries != 1 {
		t.Fatalf("result metrics = %+v, want one result stored", m)
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

// spillStore builds a one-blob store with a spill tier and a 1-minute TTL
// on a settable clock.
func spillStore(t *testing.T, now *time.Time) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewStore(Config{MaxBlobs: 1, MaxBytes: 1 << 20, TTL: time.Minute,
		SpillDir: dir, Clock: func() time.Time { return *now }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, dir
}

// TestSpilledBlobExpires: the TTL holds in the spill tier. A blob evicted
// to the spill and read an hour after its last store is refused by every
// lookup, its file is unlinked, and its result-index entry goes.
func TestSpilledBlobExpires(t *testing.T) {
	lookups := map[string]func(s *Store, hash string) bool{
		"Get": func(s *Store, hash string) bool {
			_, _, ok := s.Get(hash)
			return ok
		},
		"Open": func(s *Store, hash string) bool {
			rs, _, _, ok := s.Open(hash)
			if c, isCloser := rs.(io.Closer); isCloser {
				c.Close()
			}
			return ok
		},
		"Result": func(s *Store, _ string) bool {
			_, _, ok := s.Result(testKey(1))
			return ok
		},
	}
	for name, lookup := range lookups {
		t.Run(name, func(t *testing.T) {
			now := time.Unix(1_000_000, 0)
			s, dir := spillStore(t, &now)
			hash := putResult(t, s, testKey(1), `{"a":1}`)
			putResult(t, s, testKey(2), `{"b":2}`) // evicts the first to the spill
			now = now.Add(time.Hour)
			if lookup(s, hash) {
				t.Fatal("blob served an hour past its 1-minute TTL")
			}
			if _, err := os.Stat(filepath.Join(dir, hash)); !os.IsNotExist(err) {
				t.Fatalf("expired spill file still on disk (stat err %v)", err)
			}
			if got := resultDoc(s, testKey(1)); got != "" {
				t.Fatalf("expired result answered: %q", got)
			}
		})
	}
}

// TestSpillReadmissionKeepsLastStore: a spilled blob read back into memory
// expires a TTL after its last store, not a TTL after the read; a Put of
// the same bytes is a store and moves that time.
func TestSpillReadmissionKeepsLastStore(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	s, _ := spillStore(t, &now)
	hash := putResult(t, s, testKey(1), `{"a":1}`)
	putResult(t, s, testKey(2), `{"b":2}`)
	now = now.Add(50 * time.Second)
	if _, _, ok := s.Get(hash); !ok {
		t.Fatal("spilled blob missed inside its TTL")
	}
	now = now.Add(20 * time.Second) // 70 s after the last store
	if _, _, ok := s.Get(hash); ok {
		t.Fatal("re-admitted blob outlived its last store's TTL")
	}

	hash = putResult(t, s, testKey(3), `{"c":3}`)
	now = now.Add(50 * time.Second)
	putResult(t, s, testKey(3), `{"c":3}`) // a refresh: the last store moves
	putResult(t, s, testKey(4), `{"d":4}`) // evicts it to the spill
	now = now.Add(30 * time.Second)        // 80 s after the first store, 30 after the refresh
	if _, _, ok := s.Get(hash); !ok {
		t.Fatal("refreshed blob expired from its first store")
	}
}

// TestJanitorSweepsSpill: the janitor's sweep unlinks expired spill files
// the memory tier no longer knows about, drops their result-index
// entries, and keeps files stored within the TTL.
func TestJanitorSweepsSpill(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	s, dir := spillStore(t, &now)
	putResult(t, s, testKey(1), `{"a":1}`)
	putResult(t, s, testKey(2), `{"b":2}`)
	now = now.Add(time.Hour)
	fresh := putResult(t, s, testKey(3), `{"c":3}`)
	s.sweepSpill(now)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != fresh {
		names := []string{}
		for _, f := range files {
			names = append(names, f.Name())
		}
		t.Fatalf("spill after sweep = %v, want only %s", names, fresh)
	}
	if m := s.ResultMetrics(); m.Entries != 1 {
		t.Fatalf("result entries = %d after the sweep, want only the fresh one", m.Entries)
	}
}

// TestSpillSweepKeepsForeignFiles: the sweep removes only the files the
// store writes. Other files in a shared spill directory stay however old
// they are; a temp file an interrupted write left goes once it is.
func TestSpillSweepKeepsForeignFiles(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	s, dir := spillStore(t, &now)
	hash := putResult(t, s, testKey(1), `{"a":1}`)
	foreign := []string{
		"jobs.journal.1",
		"notes.txt",
		strings.ToUpper(hash),
		hash + ".bak",
		hash[:63] + ".tmp1",
	}
	for _, name := range append(foreign, hash+".tmp123") {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, now, now); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(time.Hour)
	s.sweepSpill(now)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range files {
		got = append(got, f.Name())
	}
	sort.Strings(foreign)
	if !slices.Equal(got, foreign) {
		t.Fatalf("spill after sweep = %v, want only the foreign files %v", got, foreign)
	}
}

// TestSpillSweepConcurrentAccess runs puts and every lookup against the
// spill tier while the janitor and explicit sweeps expire files under a
// TTL short enough to fire mid-run (run it under -race).
func TestSpillSweepConcurrentAccess(t *testing.T) {
	s, err := NewStore(Config{MaxBlobs: 4, MaxBytes: 1 << 20, TTL: 150 * time.Millisecond, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.sweepSpill(time.Now())
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			deadline := time.Now().Add(400 * time.Millisecond)
			for i := 0; time.Now().Before(deadline); i++ {
				key := testKey((g*7 + i) % 16)
				hash, err := s.Put(EncodeResult(key, []byte(`{"i":1}`)))
				if err != nil {
					t.Error(err)
					return
				}
				s.Result(testKey(i % 16))
				s.Get(hash)
				if rs, _, _, ok := s.Open(hash); ok {
					if c, isCloser := rs.(io.Closer); isCloser {
						c.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	sweeper.Wait()
	if m := s.ResultMetrics(); m.Entries > 16 {
		t.Fatalf("result entries = %d for 16 keys", m.Entries)
	}
}
