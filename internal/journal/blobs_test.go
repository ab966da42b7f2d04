package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// noSync skips fsync: the crash-point enumeration opens thousands of
// journals and only the recorded order of fsyncs, not their cost, is
// under test anywhere in this file.
func noSync(*os.File) error { return nil }

// payloadDoc is a small stand-in for a marshalled jobs.Payload.
func payloadDoc(key string) json.RawMessage {
	return json.RawMessage(`{"kind":"analysis","cache_key":"` + key + `"}`)
}

// knownEntries is the fixed journal of the crash-point tests: every record
// kind, a payload shared by two jobs, an evicted job, a failed job, a
// finished job, a queued job and one interrupted mid-run.
func knownEntries() []jobs.JournalEntry {
	at := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	s := func(n int) time.Time { return at.Add(time.Duration(n) * time.Second) }
	return []jobs.JournalEntry{
		{Op: jobs.OpSubmit, ID: "j1", At: s(0), Payload: payloadDoc("a")},
		{Op: jobs.OpSubmit, ID: "j2", At: s(1), Payload: payloadDoc("shared")},
		{Op: jobs.OpRunning, ID: "j1", At: s(2)},
		{Op: jobs.OpDone, ID: "j1", At: s(3), Result: json.RawMessage(`{"score":"7/7"}`)},
		{Op: jobs.OpSubmit, ID: "j3", At: s(4), Payload: payloadDoc("shared")},
		{Op: jobs.OpRunning, ID: "j2", At: s(5)},
		{Op: jobs.OpFailed, ID: "j2", At: s(6), Error: "boom"},
		{Op: jobs.OpRunning, ID: "j3", At: s(7)},
		{Op: jobs.OpDone, ID: "j3", At: s(8), Result: json.RawMessage(`{"score":"5/7"}`)},
		{Op: jobs.OpEvict, ID: "j1", At: s(9)},
		{Op: jobs.OpSubmit, ID: "j4", At: s(10), Payload: payloadDoc("d")},
		{Op: jobs.OpSubmit, ID: "j5", At: s(11), Payload: payloadDoc("e")},
		{Op: jobs.OpRunning, ID: "j5", At: s(12)},
	}
}

// writeKnown appends entries through a fresh journal at path and closes it.
func writeKnown(t *testing.T, path string, entries []jobs.JournalEntry) {
	t.Helper()
	j, err := open(path, Config{CompactMinRecords: 1 << 30}, noSync)
	must(t, err)
	for _, e := range entries {
		must(t, j.Append(e))
	}
	must(t, j.Close())
}

// replayOf opens the journal at path and replays it.
func replayOf(t *testing.T, path string) ([]jobs.JournalEntry, Metrics) {
	t.Helper()
	j, err := open(path, Config{CompactMinRecords: 1 << 30}, noSync)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()
	got := replayAll(t, j)
	return got, j.Stats()
}

// liveOf filters entries down to those of jobs not evicted within them:
// what Replay streams for an intact journal holding exactly these records.
func liveOf(entries []jobs.JournalEntry) []jobs.JournalEntry {
	evicted := make(map[string]bool)
	for _, e := range entries {
		if e.Op == jobs.OpEvict {
			evicted[e.ID] = true
		}
	}
	var out []jobs.JournalEntry
	for _, e := range entries {
		if !evicted[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// refsOf lists the blobs the live entries name.
func refsOf(entries []jobs.JournalEntry) []string {
	set := make(map[string]bool)
	for _, e := range liveOf(entries) {
		for _, raw := range []json.RawMessage{e.Payload, e.Result} {
			if len(raw) > 0 {
				set[hashOf(raw)] = true
			}
		}
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// blobFiles lists the blob directory of the journal at path.
func blobFiles(t *testing.T, path string) []string {
	t.Helper()
	des, err := os.ReadDir(path + ".blobs")
	must(t, err)
	out := make([]string, 0, len(des))
	for _, de := range des {
		out = append(out, de.Name())
	}
	sort.Strings(out)
	return out
}

// sameEntries compares replayed entries field by field, payload and result
// bytes included.
func sameEntries(got, want []jobs.JournalEntry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Op != w.Op || g.ID != w.ID || !g.At.Equal(w.At) || g.Error != w.Error ||
			!bytes.Equal(g.Payload, w.Payload) || !bytes.Equal(g.Result, w.Result) {
			return false
		}
	}
	return true
}

// copyJournal copies the log and blob directory of src to dst.
func copyJournal(t *testing.T, src, dst string) {
	t.Helper()
	log, err := os.ReadFile(src)
	must(t, err)
	must(t, os.WriteFile(dst, log, 0o644))
	must(t, os.Mkdir(dst+".blobs", 0o755))
	for _, name := range blobFiles(t, src) {
		data, err := os.ReadFile(filepath.Join(src+".blobs", name))
		must(t, err)
		must(t, os.WriteFile(filepath.Join(dst+".blobs", name), data, 0o644))
	}
}

// TestRecordsCarryRefsNotBytes: a megabyte payload and result leave a log
// line of a few hundred bytes; the bytes live in the blob directory and
// replay byte-identically.
func TestRecordsCarryRefsNotBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j := openT(t, path, Config{})
	big := json.RawMessage(`{"frames":"` + strings.Repeat("x", 1<<20) + `"}`)
	at := time.Now()
	must(t, j.Append(jobs.JournalEntry{Op: jobs.OpSubmit, ID: "job1", At: at, Payload: big}))
	must(t, j.Append(jobs.JournalEntry{Op: jobs.OpDone, ID: "job1", At: at, Result: big}))
	if size := j.Stats().ActiveBytes; size > 2*256 {
		t.Errorf("two records take %d log bytes, want a few hundred", size)
	}
	if got, want := blobFiles(t, path), []string{hashOf(big)}; !reflect.DeepEqual(got, want) {
		t.Errorf("blob dir = %v, want the one shared blob %v", got, want)
	}
	got := replayAll(t, j)
	if len(got) != 2 || !bytes.Equal(got[0].Payload, big) || !bytes.Equal(got[1].Result, big) {
		t.Fatal("payload or result did not replay byte-identically")
	}
}

// TestTerminalDurabilityOrder pins the durability contract through a
// recording fsync: a done record's result blob is fsynced, then the blob
// directory, then the log — and the log holds no line naming the blob
// while the blob is being fsynced. Payload blobs and submit records are
// not fsynced.
func TestTerminalDurabilityOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	var calls []string
	var logDuringBlobSync []byte
	j, err := open(path, Config{}, func(f *os.File) error {
		calls = append(calls, f.Name())
		if strings.HasPrefix(filepath.Base(f.Name()), tmpPrefix) {
			logDuringBlobSync, _ = os.ReadFile(path)
		}
		return f.Sync()
	})
	must(t, err)
	defer j.Close()
	calls = nil

	must(t, j.Append(jobs.JournalEntry{Op: jobs.OpSubmit, ID: "job1", At: time.Now(), Payload: payloadDoc("a")}))
	must(t, j.Append(jobs.JournalEntry{Op: jobs.OpRunning, ID: "job1", At: time.Now()}))
	if len(calls) != 0 {
		t.Fatalf("submit/running appends fsynced %v, want nothing", calls)
	}
	must(t, j.Append(jobs.JournalEntry{Op: jobs.OpDone, ID: "job1", At: time.Now(), Result: json.RawMessage(`{"score":"7/7"}`)}))
	if len(calls) != 3 ||
		filepath.Dir(calls[0]) != j.blobDir || !strings.HasPrefix(filepath.Base(calls[0]), tmpPrefix) ||
		calls[1] != j.blobDir || calls[2] != path {
		t.Fatalf("fsync order = %v, want [result blob temp file, %s, %s]", calls, j.blobDir, path)
	}
	if bytes.Contains(logDuringBlobSync, []byte(`"done"`)) {
		t.Errorf("the done record reached the log before its blob was durable:\n%s", logDuringBlobSync)
	}
}

// TestFailedBlobSyncWritesNoRecord: when any step of making the result
// blob durable fails, Append reports it and no done record is written, so
// a restart re-runs the job instead of naming a blob that may be lost.
func TestFailedBlobSyncWritesNoRecord(t *testing.T) {
	for _, step := range []string{"file", "dir"} {
		t.Run(step, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.journal")
			blobDir := path + ".blobs"
			j, err := open(path, Config{}, func(f *os.File) error {
				isDir := f.Name() == blobDir
				isTemp := strings.HasPrefix(filepath.Base(f.Name()), tmpPrefix)
				if (step == "dir" && isDir) || (step == "file" && isTemp) {
					return errors.New("injected fsync failure")
				}
				return f.Sync()
			})
			must(t, err)
			must(t, j.Append(jobs.JournalEntry{Op: jobs.OpSubmit, ID: "job1", At: time.Now(), Payload: payloadDoc("a")}))
			if err := j.Append(jobs.JournalEntry{Op: jobs.OpDone, ID: "job1", At: time.Now(), Result: json.RawMessage(`{}`)}); err == nil {
				t.Fatal("done append succeeded although its blob never became durable")
			}
			must(t, j.Close())
			got, _ := replayOf(t, path)
			if len(got) != 1 || got[0].Op != jobs.OpSubmit {
				t.Fatalf("replay = %+v, want only the submit record", got)
			}
			if files, want := blobFiles(t, path), []string{hashOf(payloadDoc("a"))}; !reflect.DeepEqual(files, want) {
				t.Errorf("blob dir after reopen = %v, want only the payload blob %v", files, want)
			}
		})
	}
}

// TestBlobGCFollowsLiveReferences: evicting jobs and compacting leaves the
// blob directory holding exactly the blobs live records name; a payload
// shared by two jobs survives until both are evicted; and no blob is
// unlinked on the evict append itself, only once a compacted log that no
// longer names it is in place.
func TestBlobGCFollowsLiveReferences(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	cfg := Config{CompactRatio: 0.01, CompactMinRecords: 1}
	j := openT(t, path, cfg)
	at := time.Now()
	var appended []jobs.JournalEntry
	app := func(e jobs.JournalEntry) {
		t.Helper()
		must(t, j.Append(e))
		appended = append(appended, e)
	}
	for _, job := range []struct{ id, payload, result string }{
		{"jA", "shared", `{"r":"A"}`}, {"jB", "shared", `{"r":"B"}`}, {"jC", "own", `{"r":"C"}`},
	} {
		app(jobs.JournalEntry{Op: jobs.OpSubmit, ID: job.id, At: at, Payload: payloadDoc(job.payload)})
		app(jobs.JournalEntry{Op: jobs.OpDone, ID: job.id, At: at, Result: json.RawMessage(job.result)})
	}
	if got, want := blobFiles(t, path), refsOf(appended); !reflect.DeepEqual(got, want) || len(got) != 5 {
		t.Fatalf("blob dir = %v, want the 5 distinct blobs %v", got, want)
	}

	before := blobFiles(t, path)
	app(jobs.JournalEntry{Op: jobs.OpEvict, ID: "jA", At: at})
	if got := blobFiles(t, path); !reflect.DeepEqual(got, before) {
		t.Fatalf("the evict append itself unlinked blobs: %v -> %v", before, got)
	}
	must(t, j.Sync()) // compaction, then the sweep
	if j.Stats().Compactions == 0 {
		t.Fatal("no compaction after the eviction")
	}
	got := blobFiles(t, path)
	if want := refsOf(appended); !reflect.DeepEqual(got, want) || len(got) != 4 {
		t.Fatalf("after evicting jA: blob dir = %v, want %v", got, want)
	}
	if !contains(got, hashOf(payloadDoc("shared"))) {
		t.Fatal("the payload jB still shares was unlinked")
	}

	app(jobs.JournalEntry{Op: jobs.OpEvict, ID: "jB", At: at})
	must(t, j.Sync())
	got = blobFiles(t, path)
	if want := refsOf(appended); !reflect.DeepEqual(got, want) || len(got) != 2 || contains(got, hashOf(payloadDoc("shared"))) {
		t.Fatalf("after evicting jB too: blob dir = %v, want %v", got, want)
	}

	must(t, j.Close())
	replayed, _ := replayOf(t, path)
	if !sameEntries(replayed, liveOf(appended)) || len(blobFiles(t, path)) != 2 {
		t.Fatalf("reopened: replay %+v over blobs %v, want jC's records over 2 blobs", replayed, blobFiles(t, path))
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// TestLegacyInlineJournal: a log written in the inline format (each line
// a jobs.JournalEntry with its payload and result embedded) replays
// byte-identically, and the next compaction rewrites it by reference.
func TestLegacyInlineJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	entries := knownEntries()
	var legacy bytes.Buffer
	for _, e := range entries {
		raw, err := json.Marshal(e)
		must(t, err)
		legacy.Write(append(raw, '\n'))
	}
	must(t, os.WriteFile(path, legacy.Bytes(), 0o644))

	j := openT(t, path, Config{CompactRatio: 0.01, CompactMinRecords: 1})
	if got := replayAll(t, j); !sameEntries(got, liveOf(entries)) {
		t.Fatalf("legacy replay differs:\n got %+v\nwant %+v", got, liveOf(entries))
	}
	// The evict record already in the log makes the next Sync compact.
	must(t, j.Sync())
	if j.Stats().Compactions == 0 {
		t.Fatal("no compaction")
	}
	log, err := os.ReadFile(path)
	must(t, err)
	if bytes.Contains(log, []byte(`"payload":`)) || bytes.Contains(log, []byte(`"result":`)) ||
		!bytes.Contains(log, []byte(`"payload_ref":`)) || !bytes.Contains(log, []byte(`"result_ref":`)) {
		t.Fatalf("compacted log still inline or without refs:\n%s", log)
	}
	if got, want := blobFiles(t, path), refsOf(entries); !reflect.DeepEqual(got, want) {
		t.Errorf("blob dir = %v, want %v", got, want)
	}
	if got := replayAll(t, j); !sameEntries(got, liveOf(entries)) {
		t.Fatalf("replay after the by-reference rewrite differs: %+v", got)
	}
	must(t, j.Close())
	if got, _ := replayOf(t, path); !sameEntries(got, liveOf(entries)) {
		t.Fatalf("reopened replay differs: %+v", got)
	}
}

// TestCrashPointLogTruncation cuts the log of a known journal at every
// byte offset. Each reopened journal must replay exactly the live records
// of the complete lines before the cut, resolved byte-identically, and
// keep exactly the blobs those records name.
func TestCrashPointLogTruncation(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "known.journal")
	entries := knownEntries()
	writeKnown(t, src, entries)
	log, err := os.ReadFile(src)
	must(t, err)

	for cut := 0; cut <= len(log); cut++ {
		path := filepath.Join(dir, "cut.journal")
		must(t, os.RemoveAll(path))
		must(t, os.RemoveAll(path+".blobs"))
		copyJournal(t, src, path)
		must(t, os.WriteFile(path, log[:cut], 0o644))

		complete := bytes.Count(log[:cut], []byte("\n"))
		prefix := entries[:complete]
		got, st := replayOf(t, path)
		if !sameEntries(got, liveOf(prefix)) {
			t.Fatalf("cut at %d: replay %+v, want the live records of the first %d", cut, got, complete)
		}
		if st.DroppedJobs != 0 {
			t.Fatalf("cut at %d: %d jobs dropped with every blob intact", cut, st.DroppedJobs)
		}
		if files, want := blobFiles(t, path), refsOf(prefix); !reflect.DeepEqual(files, want) {
			t.Fatalf("cut at %d: blob dir %v, want %v", cut, files, want)
		}
	}
}

// TestCrashPointBlobDamage deletes, truncates or flips one byte of each
// blob of a known journal in turn. A pending job whose payload blob is
// lost is dropped and counted; a terminal job keeps its records with an
// empty payload; a done record whose result blob is damaged replays
// without a result (the Manager re-runs it) and is never served.
func TestCrashPointBlobDamage(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "known.journal")
	entries := knownEntries()
	writeKnown(t, src, entries)
	intact, _ := replayOf(t, src) // also sweeps the evicted job's blobs

	damages := map[string]func(path string) error{
		"delete":   os.Remove,
		"truncate": func(p string) error { return os.Truncate(p, 3) },
		"flip": func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x01
			return os.WriteFile(p, data, 0o644)
		},
	}
	for _, blobName := range blobFiles(t, src) {
		for kind, damage := range damages {
			path := filepath.Join(dir, "damaged.journal")
			must(t, os.RemoveAll(path))
			must(t, os.RemoveAll(path+".blobs"))
			copyJournal(t, src, path)
			must(t, damage(filepath.Join(path+".blobs", blobName)))

			want, wantDropped := expectDamaged(intact, blobName)
			got, st := replayOf(t, path)
			if !sameEntries(byJob(got), byJob(want)) {
				t.Fatalf("%s of blob %.12s: replay\n%+v\nwant\n%+v", kind, blobName, got, want)
			}
			if st.DroppedJobs != wantDropped {
				t.Fatalf("%s of blob %.12s: dropped %d jobs, want %d", kind, blobName, st.DroppedJobs, wantDropped)
			}
			for _, e := range got {
				if e.Result != nil && hashOf(e.Result) == blobName {
					t.Fatalf("%s of blob %.12s: damaged result served", kind, blobName)
				}
			}
		}
	}
}

// expectDamaged is the reference outcome of losing one blob: per job, the
// intact replay with the lost result cleared, and a job whose payload is
// lost either kept with an empty payload (it reached a terminal record it
// can still stand on) or dropped.
func expectDamaged(intact []jobs.JournalEntry, lost string) ([]jobs.JournalEntry, int) {
	payloadLost := make(map[string]bool)
	standsAlone := make(map[string]bool)
	for _, e := range intact {
		switch {
		case e.Op == jobs.OpSubmit && hashOf(e.Payload) == lost:
			payloadLost[e.ID] = true
		case e.Op == jobs.OpFailed, e.Op == jobs.OpDone && hashOf(e.Result) != lost:
			standsAlone[e.ID] = true
		}
	}
	var out []jobs.JournalEntry
	dropped := make(map[string]bool)
	for _, e := range intact {
		if payloadLost[e.ID] && !standsAlone[e.ID] {
			dropped[e.ID] = true
			continue
		}
		if e.Op == jobs.OpSubmit && payloadLost[e.ID] {
			e.Payload = json.RawMessage("{}")
		}
		if e.Op == jobs.OpDone && hashOf(e.Result) == lost {
			e.Result = nil
		}
		out = append(out, e)
	}
	return out, len(dropped)
}

// byJob orders entries by job id, keeping each job's records in order:
// a released parked job replays after the jobs that overtook it.
func byJob(entries []jobs.JournalEntry) []jobs.JournalEntry {
	out := append([]jobs.JournalEntry(nil), entries...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
