package events

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSSERoundTrip writes frames (with interleaved heartbeats) and parses
// them back: ids, types and documents must survive the wire.
func TestSSERoundTrip(t *testing.T) {
	at := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	in := []Event{
		{Seq: 1, Type: TypeQueued, JobID: "a", At: at, State: "queued"},
		{Seq: 2, Type: TypeStage, JobID: "a", At: at, State: "running", Stage: "segmentation"},
		{Seq: 3, Type: TypeDone, JobID: "a", At: at, State: "done", Result: json.RawMessage(`{"frames":20}`)},
	}
	var buf bytes.Buffer
	for i, e := range in {
		if err := WriteFrame(&buf, e); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := WriteHeartbeat(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	fr := NewFrameReader(&buf)
	for i, want := range in {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Seq() != want.Seq || f.Event != string(want.Type) {
			t.Errorf("frame %d: id=%s event=%s, want %d/%s", i, f.ID, f.Event, want.Seq, want.Type)
		}
		got, err := f.DecodeEvent()
		if err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		if got.Seq != want.Seq || got.Type != want.Type || got.Stage != want.Stage ||
			got.State != want.State || !got.At.Equal(want.At) || string(got.Result) != string(want.Result) {
			t.Errorf("frame %d: %+v, want %+v", i, got, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

// TestFrameReaderDiscardsTruncatedFrame: a frame cut before its blank line
// must not be delivered (a reconnecting client resumes from the last id it
// actually received).
func TestFrameReaderDiscardsTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Event{Seq: 1, Type: TypeQueued, JobID: "a"}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("id: 2\nevent: running\ndata: {\"seq\":2") // cut mid-frame
	fr := NewFrameReader(&buf)
	if f, err := fr.Next(); err != nil || f.Seq() != 1 {
		t.Fatalf("first frame: %+v, %v", f, err)
	}
	if f, err := fr.Next(); err == nil {
		t.Fatalf("truncated frame was delivered: %+v", f)
	}
}

// TestFrameReaderCRLFAndComments tolerates CRLF line endings and comment
// lines, per the SSE spec.
func TestFrameReaderCRLFAndComments(t *testing.T) {
	raw := ": welcome\r\nid: 7\r\nevent: stage\r\ndata: {\"seq\":7,\"type\":\"stage\"}\r\n\r\n"
	fr := NewFrameReader(strings.NewReader(raw))
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq() != 7 || f.Event != "stage" {
		t.Errorf("frame: %+v", f)
	}
}

// TestWriteFrameSplicesResult: WriteFrame writes a result in json.Marshal's
// form as it is, byte for byte what marshalling the whole event writes.
func TestWriteFrameSplicesResult(t *testing.T) {
	at := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	for _, e := range []Event{
		{Seq: 9, Type: TypeDone, JobID: "j", At: at, State: "done", Result: json.RawMessage(`{"a":[1,2,{"b":"\u003cx\u003e \u0026"}],"c":null}`)},
		{Seq: 9, Type: TypeSnapshot, At: at, State: "done", Result: json.RawMessage(`[]`)},
		{Seq: 10, Type: TypeFailed, JobID: "j", At: at, State: "failed", Error: "<boom>"},
	} {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want := "id: " + strconv.FormatUint(e.Seq, 10) + "\nevent: " + string(e.Type) + "\ndata: " + string(data) + "\n\n"
		var buf bytes.Buffer
		if err := WriteFrame(&buf, e); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Errorf("WriteFrame = %q, want %q", buf.String(), want)
		}
	}
}
