package main

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Two children overlapping on [30, 40] and a third running past
		// the parent's end: they cover [10, 60] and [80, 100] of it.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]float64{1: 30, 2: 25, 3: 30, 4: 40, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestSelfTimeNestedChildInsideSibling(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 50},
		{ID: 2, Parent: 1, Start: 5, End: 45},
		{ID: 3, Parent: 1, Start: 10, End: 20}, // wholly inside span 2
	}
	if got := selfTimes(spans)[1]; got != 10 {
		t.Fatalf("self time = %v, want 10", got)
	}
}

func TestEntryBytesMatchesEncodedLine(t *testing.T) {
	payload, _ := json.Marshal(map[string]any{"frames": []string{"AAAA", "BBBB"}, "note": "<&>"})
	result, _ := json.Marshal(map[string]any{"score": "7/7"})
	for _, e := range []jobs.JournalEntry{
		{Op: jobs.OpSubmit, ID: "j1", At: time.Unix(1700000000, 5), Payload: payload},
		{Op: jobs.OpRunning, ID: "j1", At: time.Unix(1700000001, 0)},
		{Op: jobs.OpDone, ID: "j1", At: time.Unix(1700000002, 0), Result: result},
		{Op: jobs.OpFailed, ID: "j2", At: time.Unix(1700000003, 0), Error: "boom"},
	} {
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := entryBytes(e), int64(len(raw)+1); got != want {
			t.Errorf("%s entry: entryBytes = %d, encoded line is %d bytes", e.Op, got, want)
		}
	}
}
