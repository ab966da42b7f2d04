package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// fuzzBlob is present in every fuzzed journal's blob directory, so records
// naming its hash resolve while any other ref is lost.
var fuzzBlob = []byte(`{"kind":"analysis","cache_key":"fuzz"}`)

// FuzzJournalOpen feeds arbitrary bytes to Open as the active segment,
// then replays. Open either refuses with ErrCorrupt or keeps a prefix of
// the input that ends on a line boundary, and Replay then succeeds with at
// most one entry per kept line. The seed corpus is under
// testdata/fuzz/FuzzJournalOpen; run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzJournalOpen -fuzztime 20s ./internal/journal/
func FuzzJournalOpen(f *testing.F) {
	ref := hashOf(fuzzBlob)
	f.Add([]byte(`{"op":"submit","id":"a","at":"2026-07-28T12:00:00Z","payload_ref":"` + ref + `"}` + "\n" +
		`{"op":"done","id":"a","at":"2026-07-28T12:00:01Z","result_ref":"` + ref + `"}` + "\n"))
	f.Add([]byte(`{"op":"submit","id":"b","at":"2026-07-28T12:00:00Z","payload":{"kind":"analysis"}}` + "\n" +
		`{"op":"done","id":"b","at":"2026-07-28T12:00:01Z","result":{"score":"7/7"}}` + "\n" + `{"op":"do`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		must(t, os.WriteFile(path, data, 0o644))
		must(t, os.Mkdir(path+".blobs", 0o755))
		must(t, os.WriteFile(filepath.Join(path+".blobs", ref), fuzzBlob, 0o644))

		j, err := open(path, Config{}, noSync)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open failed without ErrCorrupt: %v", err)
			}
			return
		}
		defer j.Close()
		kept, err := os.ReadFile(path)
		must(t, err)
		if !bytes.HasPrefix(data, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("Open kept %q, not a line-aligned prefix of the input", kept)
		}
		n := 0
		if err := j.Replay(func(e jobs.JournalEntry) error {
			n++
			if len(e.Result) > 0 && !bytes.Contains(kept, e.Result) && !bytes.Equal(e.Result, fuzzBlob) {
				t.Fatalf("replayed a result that is neither inline nor the intact blob: %q", e.Result)
			}
			return nil
		}); err != nil {
			t.Fatalf("Replay after a clean Open: %v", err)
		}
		if lines := bytes.Count(kept, []byte("\n")); n > lines {
			t.Fatalf("replayed %d entries from %d lines", n, lines)
		}
	})
}
