package artifacts

import (
	"fmt"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
)

// ResolveFrames materialises the frames artifact stored under hash. The
// frames come back bit-identical to the clip that was sealed, so a request
// built from them is indistinguishable from one uploaded inline — same
// Validate outcome, same analysis — and its cache key is the one
// jobs.RefKey derives from the hash alone.
func ResolveFrames(r Resolver, hash string) ([]*imaging.Image, error) {
	blob, err := r.Artifact(hash)
	if err != nil {
		return nil, fmt.Errorf("frames ref: %w", err)
	}
	frames, err := DecodeFrames(blob)
	if err != nil {
		return nil, fmt.Errorf("frames ref %s: %w", hash, err)
	}
	return frames, nil
}

// CheckFrames is ResolveFrames without the decode: it walks the blob's
// header and lengths and copies no pixel. An unknown hash wraps
// ErrNotFound; another kind or a malformed blob is an error that does not.
func CheckFrames(r Resolver, hash string) error {
	blob, err := r.Artifact(hash)
	if err != nil {
		return fmt.Errorf("frames ref: %w", err)
	}
	if err := walkFrames(blob, nil); err != nil {
		return fmt.Errorf("frames ref %s: %w", hash, err)
	}
	return nil
}

// PayloadRequest decodes a payload into its analysis request and, when the
// payload names its frames by hash (jobs.Payload.FramesRef) and the request
// does not carry them yet, materialises them through r.
func PayloadRequest(r Resolver, p jobs.Payload) (core.Request, error) {
	req, err := p.AnalysisRequest()
	if err != nil || p.FramesRef == "" || len(req.Frames) > 0 {
		return req, err
	}
	req.Frames, err = ResolveFrames(r, p.FramesRef)
	if err != nil {
		return core.Request{}, err
	}
	return req, nil
}
