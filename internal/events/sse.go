// Server-sent-events wire format for job events, shared by the HTTP server
// (writer) and the remote dispatcher's stream proxy plus tests (reader).
//
// One event is one SSE frame:
//
//	id: <seq>          the per-job sequence number — the resume token a
//	                   client sends back as Last-Event-ID on reconnect
//	event: <type>      the event type (queued, stage, done, ...)
//	data: <json>       the Event document, compact (single line)
//
// Heartbeats are comment lines (": hb") that keep idle connections alive
// through proxies without delivering an event.
package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteFrame writes one event as an SSE frame. The event document is
// marshalled compact, so data is always a single line. A result document
// is written as it is, not re-encoded: it must already be in the form
// json.Marshal writes, compact with <, > and & escaped, as are the results
// of the frames a FrameReader reads.
func WriteFrame(w io.Writer, e Event) error {
	result := e.Result
	e.Result = nil
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("events: encode frame: %w", err)
	}
	frame := fmt.Appendf(make([]byte, 0, len(data)+len(result)+64), "id: %d\nevent: %s\ndata: ", e.Seq, e.Type)
	if len(result) > 0 {
		// Result is Event's last field, so it closes the object.
		frame = append(frame, data[:len(data)-1]...)
		frame = append(append(append(frame, `,"result":`...), result...), '}')
	} else {
		frame = append(frame, data...)
	}
	_, err = w.Write(append(frame, "\n\n"...))
	return err
}

// WriteHeartbeat writes the keep-alive comment frame.
func WriteHeartbeat(w io.Writer) error {
	_, err := io.WriteString(w, ": hb\n\n")
	return err
}

// Frame is one parsed SSE frame.
type Frame struct {
	ID    string
	Event string
	Data  []byte
}

// DecodeEvent unmarshals the frame's data into an Event.
func (f Frame) DecodeEvent() (Event, error) {
	var e Event
	if err := json.Unmarshal(f.Data, &e); err != nil {
		return Event{}, fmt.Errorf("events: decode frame data: %w", err)
	}
	return e, nil
}

// Seq parses the frame id as a sequence number (0 when absent/malformed).
func (f Frame) Seq() uint64 {
	n, err := strconv.ParseUint(f.ID, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// FrameReader incrementally parses an SSE byte stream into frames.
type FrameReader struct {
	br *bufio.Reader
}

// NewFrameReader wraps an SSE response body.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Next returns the next complete frame, skipping heartbeat comments. It
// returns the reader's error — io.EOF on a clean close, the transport
// error on a cut connection — once no further frame can be assembled; a
// frame truncated by the cut is discarded (SSE frames are only dispatched
// at their terminating blank line).
func (fr *FrameReader) Next() (Frame, error) {
	var f Frame
	have := false
	for {
		line, err := fr.br.ReadString('\n')
		if err != nil {
			return Frame{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if have {
				return f, nil
			}
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue // comment / heartbeat
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			f.ID = value
			have = true
		case "event":
			f.Event = value
			have = true
		case "data":
			if len(f.Data) > 0 {
				f.Data = append(f.Data, '\n')
			}
			f.Data = append(f.Data, value...)
			have = true
		}
	}
}
