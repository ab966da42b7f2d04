// Package httpbody reads whole HTTP bodies between peers: clip blobs,
// worker payloads and result documents of up to tens of megabytes. Read
// sizes its buffer from Content-Length, so a 1.66 MB clip lands in one
// allocation instead of io.ReadAll's doubling, and it refuses a body over
// its limit instead of cutting it short.
package httpbody

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// ErrTooLarge marks a body longer than the reader's limit.
var ErrTooLarge = errors.New("httpbody: body exceeds the limit")

// MaxPrealloc caps what Read allocates on the word of a Content-Length
// header alone. A larger body grows its buffer only as its bytes arrive, so
// a client that declares a huge length and sends nothing costs no more
// than this.
const MaxPrealloc = 4 << 20

// Read returns all of r, a body that declares contentLength bytes (-1 when
// unknown, as net/http reports a chunked body). It refuses a body over
// limit with ErrTooLarge, and a body that is shorter or longer than a
// declared length.
func Read(r io.Reader, contentLength, limit int64) ([]byte, error) {
	if contentLength > limit {
		return nil, fmt.Errorf("%w: Content-Length %d, limit %d", ErrTooLarge, contentLength, limit)
	}
	if contentLength < 0 {
		body, err := io.ReadAll(io.LimitReader(r, limit+1))
		if err != nil {
			return nil, err
		}
		if int64(len(body)) > limit {
			return nil, fmt.Errorf("%w: over %d bytes", ErrTooLarge, limit)
		}
		return body, nil
	}
	body := make([]byte, 0, min(contentLength, MaxPrealloc))
	for int64(len(body)) < contentLength {
		if len(body) == cap(body) {
			// Past the preallocation: at most double, never past the
			// declared length.
			body = slices.Grow(body, int(min(contentLength-int64(len(body)), int64(len(body)))))
		}
		end := min(int64(cap(body)), contentLength)
		n, err := r.Read(body[len(body):end])
		body = body[:len(body)+n]
		if errors.Is(err, io.EOF) && int64(len(body)) < contentLength {
			return nil, fmt.Errorf("httpbody: body ended after %d of its %d bytes: %w", len(body), contentLength, io.ErrUnexpectedEOF)
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
	}
	var extra [1]byte
	if n, _ := io.ReadFull(r, extra[:]); n > 0 {
		return nil, fmt.Errorf("httpbody: body runs past its Content-Length %d", contentLength)
	}
	return body, nil
}
