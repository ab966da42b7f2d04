package events

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strconv"
	"testing"
	"time"
	"unicode/utf8"
)

// fuzzTypes are the event types a round-trip case picks from.
var fuzzTypes = []Type{TypeQueued, TypeRunning, TypeStage, TypeDone, TypeFailed, TypeEvicted, TypeSnapshot}

// FuzzFrameReader feeds arbitrary bytes to FrameReader.Next and
// Frame.DecodeEvent, the reader behind the dispatcher's stream proxy: it
// must not panic. It also writes one event built from the inputs with
// WriteFrame and reads it back: Next then DecodeEvent must return the
// identical event. The seed corpus lives in testdata/fuzz/FuzzFrameReader.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, seq uint64, typ uint8, text string, result []byte) {
		fr := NewFrameReader(bytes.NewReader(stream))
		for i := 0; i <= len(stream); i++ {
			fm, err := fr.Next()
			if err != nil {
				break
			}
			_, _ = fm.DecodeEvent()
			_ = fm.Seq()
		}

		if !utf8.ValidString(text) {
			return // JSON replaces invalid UTF-8, so no identity to check
		}
		e := Event{
			Seq:   seq,
			Type:  fuzzTypes[int(typ)%len(fuzzTypes)],
			JobID: text,
			At:    time.Unix(0, int64(seq>>1)).UTC(),
			State: text,
			Stage: text,
			Error: text,
		}
		if json.Valid(result) {
			// The wire carries the document compacted; start from that form.
			canon, err := json.Marshal(json.RawMessage(result))
			if err != nil {
				t.Fatalf("marshal valid result: %v", err)
			}
			e.Result = canon
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, e); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		fr = NewFrameReader(&buf)
		fm, err := fr.Next()
		if err != nil {
			t.Fatalf("Next over a written frame: %v\n%q", err, buf.Bytes())
		}
		if fm.ID != strconv.FormatUint(seq, 10) || fm.Seq() != seq || fm.Event != string(e.Type) {
			t.Fatalf("frame header id=%q event=%q, want %d %s", fm.ID, fm.Event, seq, e.Type)
		}
		back, err := fm.DecodeEvent()
		if err != nil {
			t.Fatalf("DecodeEvent: %v", err)
		}
		if !back.At.Equal(e.At) {
			t.Fatalf("at %v, want %v", back.At, e.At)
		}
		back.At, e.At = time.Time{}, time.Time{}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("round trip changed the event:\n got %+v\nwant %+v", back, e)
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("after the only frame: %v, want io.EOF", err)
		}
	})
}
