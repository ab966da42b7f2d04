package httpbody

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

func TestRead(t *testing.T) {
	const limit = 8
	body := func(n int) []byte { return bytes.Repeat([]byte("x"), n) }
	tests := []struct {
		name    string
		body    []byte
		length  int64
		want    []byte
		tooBig  bool // want ErrTooLarge
		wantErr bool // want another error
	}{
		{name: "exact length", body: body(5), length: 5, want: body(5)},
		{name: "exactly the limit", body: body(limit), length: limit, want: body(limit)},
		{name: "empty", body: nil, length: 0, want: []byte{}},
		{name: "unknown length", body: body(7), length: -1, want: body(7)},
		{name: "unknown length at the limit", body: body(limit), length: -1, want: body(limit)},
		{name: "unknown length over the limit", body: body(limit + 1), length: -1, tooBig: true},
		{name: "declared over the limit", body: body(limit + 1), length: limit + 1, tooBig: true},
		{name: "declared over, body short", body: body(2), length: 100, tooBig: true},
		{name: "short body", body: body(3), length: 5, wantErr: true},
		{name: "long body", body: body(6), length: 5, wantErr: true},
		{name: "length zero, body not", body: body(1), length: 0, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// One byte per Read, so the reader must assemble the body.
			got, err := Read(iotest.OneByteReader(bytes.NewReader(tt.body)), tt.length, limit)
			switch {
			case tt.tooBig:
				if !errors.Is(err, ErrTooLarge) {
					t.Fatalf("err = %v, want ErrTooLarge", err)
				}
			case tt.wantErr:
				if err == nil || errors.Is(err, ErrTooLarge) {
					t.Fatalf("err = %v, want a length mismatch", err)
				}
			case err != nil:
				t.Fatal(err)
			case !bytes.Equal(got, tt.want) || got == nil:
				t.Fatalf("body = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestReadPassesReaderErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, length := range []int64{-1, 4} {
		if _, err := Read(iotest.ErrReader(boom), length, 8); !errors.Is(err, boom) {
			t.Errorf("length %d: err = %v, want the reader's error", length, err)
		}
	}
}

func TestReadOverHTTP(t *testing.T) {
	// net/http reports Content-Length as the response's ContentLength,
	// and -1 for a chunked body; both read the same.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		if r.URL.Query().Get("chunked") == "" {
			w.Header().Set("Content-Length", strconv.Itoa(n))
		}
		_, _ = io.WriteString(w, strings.Repeat("y", n))
	}))
	defer srv.Close()
	for _, q := range []string{"n=8", "n=8&chunked=1", "n=9", "n=9&chunked=1"} {
		resp, err := http.Get(srv.URL + "/?" + q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Read(resp.Body, resp.ContentLength, 8)
		resp.Body.Close()
		if over := strings.HasPrefix(q, "n=9"); over != errors.Is(err, ErrTooLarge) || (!over && len(got) != 8) {
			t.Errorf("%s: %d bytes, err %v", q, len(got), err)
		}
	}
}

// spyReader serves its bytes in pieces of at most chunk and records the
// largest buffer Read was handed.
type spyReader struct {
	r       io.Reader
	chunk   int
	maxRead int
}

func (s *spyReader) Read(p []byte) (int, error) {
	s.maxRead = max(s.maxRead, len(p))
	return s.r.Read(p[:min(len(p), s.chunk)])
}

func TestReadDoesNotTrustTheDeclaredLength(t *testing.T) {
	// A peer that declares 64 MiB and sends a few bytes must cost the
	// preallocation cap, not the declared size.
	const declared = 64 << 20
	spy := &spyReader{r: strings.NewReader("abc"), chunk: 1 << 16}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(spy, declared, declared)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a short body", err)
	}
	if spy.maxRead > MaxPrealloc {
		t.Errorf("Read handed the body a %d-byte buffer, want at most %d", spy.maxRead, MaxPrealloc)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*MaxPrealloc {
		t.Errorf("a 3-byte body declaring %d bytes allocated %d bytes", declared, got)
	}
}

func TestReadGrowsPastThePreallocation(t *testing.T) {
	const n = 2*MaxPrealloc + 12345
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i * 7)
	}
	got, err := Read(&spyReader{r: bytes.NewReader(want), chunk: 1 << 16}, n, n)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%d bytes, err %v; want the %d-byte body", len(got), err, n)
	}
	if cap(got) > 2*n {
		t.Errorf("cap %d for a %d-byte body", cap(got), n)
	}
	for name, body := range map[string][]byte{"short": want[:n-1], "long": append(want, 0)} {
		if _, err := Read(&spyReader{r: bytes.NewReader(body), chunk: 1 << 16}, n, 2*n); err == nil {
			t.Errorf("%s body: no error", name)
		}
	}
}
