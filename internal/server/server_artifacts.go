// Artifact store and clip-ingest session routes (DESIGN.md §14).
//
// The artifact surface is content-addressed and versioned-only:
//
//	POST /v1/artifacts            store one typed blob → {hash, kind, bytes}
//	GET  /v1/artifacts/{hash}     fetch a blob (worker pull protocol)
//
// The ingest surface streams a clip in ordered chunks:
//
//	POST /v1/clips                open a session → clip id + URLs
//	GET  /v1/clips/{id}           session progress
//	PUT  /v1/clips/{id}/frames    append chunk N (multipart frames + chunk=N)
//	POST /v1/clips/{id}/seal      close → frames + silhouettes hashes
//
// A sealed clip's frames hash is accepted anywhere a frame list is today:
// POST /v1/analyze or /v1/jobs with an application/json body naming it
// (requestFromJSON). Errors clients must react to programmatically carry a
// stable code in the shared envelope: session_not_found, session_sealed,
// chunk_out_of_order, artifact_not_found.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

// ArtifactKindHeader carries the typed kind of a served artifact blob.
const ArtifactKindHeader = "X-SLJ-Artifact-Kind"

// resolver returns the Resolver for payloads that may reference artifacts
// this node does not hold: the local store alone when no origin is known,
// otherwise the pull-through resolver against the originating front end.
func (s *Server) resolver(origin string) artifacts.Resolver {
	if origin == "" {
		return s.artifacts
	}
	return &artifacts.HTTPResolver{Local: s.artifacts, Origin: origin}
}

// artifactPutResponse acknowledges one stored blob.
type artifactPutResponse struct {
	Hash  string `json:"hash"`
	Kind  string `json:"kind"`
	Bytes int    `json:"bytes"`
}

// handleArtifactPut stores one typed artifact blob (POST /v1/artifacts).
func (s *Server) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxUploadBytes)
	blob, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read artifact: %v", err))
		return
	}
	kind, ok := artifacts.KindOf(blob)
	if !ok {
		writeError(w, http.StatusBadRequest, "not an artifact blob (bad magic or kind)")
		return
	}
	hash, err := s.artifacts.Put(blob)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, artifactPutResponse{Hash: hash, Kind: string(kind), Bytes: len(blob)})
}

// handleArtifactGet serves one blob by hash (GET /v1/artifacts/{hash}) —
// the worker pull protocol, also usable by any client holding a hash.
//
// The route supports conditional and partial reads for very large clips:
// the strong ETag is the content hash itself (content-addressed storage
// makes revalidation exact — If-None-Match of the hash answers 304 with no
// body), and Range requests answer 206 with only the requested bytes.
// Memory misses with a spill tier stream straight from the spill file, so
// a ranged read of a multi-gigabyte clip never loads it into memory.
func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	hash := strings.TrimPrefix(r.URL.Path, "/v1/artifacts/")
	if hash == "" || strings.Contains(hash, "/") {
		writeError(w, http.StatusNotFound, "not found")
		return
	}
	rs, kind, _, ok := s.artifacts.Open(hash)
	if !ok {
		writeErrorCode(w, http.StatusNotFound, "artifact_not_found",
			fmt.Sprintf("no artifact %s (expired, evicted, or never stored)", hash))
		return
	}
	if c, isCloser := rs.(io.Closer); isCloser {
		defer c.Close()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(ArtifactKindHeader, string(kind))
	w.Header().Set("ETag", `"`+hash+`"`)
	// ServeContent handles If-None-Match (304), Range (206 + Content-Range,
	// including multi-range and 416), and Content-Length. The zero modtime
	// disables time-based validation — content addressing makes it moot.
	http.ServeContent(w, r, "", time.Time{}, rs)
}

// clipOpenResponse acknowledges one opened ingest session.
type clipOpenResponse struct {
	ClipID    string `json:"clip_id"`
	StatusURL string `json:"status_url"`
	FramesURL string `json:"frames_url"`
	SealURL   string `json:"seal_url"`
}

// handleClipOpen opens a chunked ingest session (POST /v1/clips).
func (s *Server) handleClipOpen(w http.ResponseWriter, r *http.Request) {
	sess, err := s.clips.Open()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	base := "/v1/clips/" + sess.ID()
	writeJSON(w, http.StatusCreated, clipOpenResponse{
		ClipID:    sess.ID(),
		StatusURL: base,
		FramesURL: base + "/frames",
		SealURL:   base + "/seal",
	})
}

// handleClipPath routes /v1/clips/{id}[/frames|/seal].
func (s *Server) handleClipPath(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/clips/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeError(w, http.StatusNotFound, "missing clip id")
		return
	}
	sess, ok := s.clips.Get(id)
	if !ok {
		writeErrorCode(w, http.StatusNotFound, "session_not_found",
			fmt.Sprintf("no ingest session %s (expired or never opened)", id))
		return
	}
	switch sub {
	case "":
		method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, sess.Status())
		})(w, r)
	case "frames":
		method(http.MethodPut, func(w http.ResponseWriter, r *http.Request) {
			s.handleClipFrames(w, r, sess)
		})(w, r)
	case "seal":
		method(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
			s.handleClipSeal(w, sess)
		})(w, r)
	default:
		writeError(w, http.StatusNotFound, "not found")
	}
}

// handleClipFrames appends one chunk of PPM frames to an ingest session
// (PUT /v1/clips/{id}/frames, multipart: frames files + chunk=N).
func (s *Server) handleClipFrames(w http.ResponseWriter, r *http.Request, sess *artifacts.Session) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxUploadBytes)
	if err := r.ParseMultipartForm(MaxUploadBytes); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parse upload: %v", err))
		return
	}
	defer func() {
		if r.MultipartForm != nil {
			_ = r.MultipartForm.RemoveAll()
		}
	}()
	cv := r.FormValue("chunk")
	chunk, err := strconv.Atoi(cv)
	if err != nil || chunk < 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("chunk %q is not a non-negative integer", cv))
		return
	}
	frames, err := framesFromUpload(r.MultipartForm)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := sess.Append(chunk, frames); err != nil {
		var oo *artifacts.OutOfOrderError
		switch {
		case errors.As(err, &oo):
			writeErrorCode(w, http.StatusConflict, "chunk_out_of_order", err.Error())
		case errors.Is(err, artifacts.ErrSessionSealed):
			writeErrorCode(w, http.StatusConflict, "session_sealed", err.Error())
		case errors.Is(err, artifacts.ErrClipTooLarge):
			writeErrorCode(w, http.StatusRequestEntityTooLarge, "clip_too_large", err.Error())
		default:
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

// handleClipSeal closes an ingest session (POST /v1/clips/{id}/seal).
// Idempotent: resealing answers the same document.
func (s *Server) handleClipSeal(w http.ResponseWriter, sess *artifacts.Session) {
	doc, err := sess.Seal()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// analyzeJSON is the application/json request body of POST /v1/analyze and
// POST /v1/jobs: artifacts by content hash instead of a multipart upload.
type analyzeJSON struct {
	FramesRef      string    `json:"frames_ref"`
	SilhouettesRef string    `json:"silhouettes_ref"`
	PosesRef       string    `json:"poses_ref"`
	ManualFirst    *poseJSON `json:"manual_first"`
	Stages         string    `json:"stages"`
	Poses          bool      `json:"poses"`
	Silhouettes    bool      `json:"silhouettes"`
}

// poseJSON is the manual first-frame stick figure in JSON requests.
type poseJSON struct {
	X   float64   `json:"x"`
	Y   float64   `json:"y"`
	Rho []float64 `json:"rho"`
}

// requestFromJSON parses a by-reference analysis request. At least one
// artifact reference is required — inline artifacts belong to the
// multipart route. Unlike multipart uploads, by-reference requests may
// enter the pipeline mid-way: a silhouettes or poses artifact carries
// exactly the state a pose- or tracking-stage entry needs.
func requestFromJSON(w http.ResponseWriter, r *http.Request) (core.Request, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20) // hashes + options only
	var doc analyzeJSON
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return core.Request{}, false
	}
	if doc.FramesRef == "" && doc.SilhouettesRef == "" && doc.PosesRef == "" {
		writeError(w, http.StatusBadRequest,
			"a JSON analysis request needs at least one artifact reference (frames_ref, silhouettes_ref or poses_ref)")
		return core.Request{}, false
	}
	req := core.Request{
		FramesRef:          doc.FramesRef,
		SilhouettesRef:     doc.SilhouettesRef,
		PosesRef:           doc.PosesRef,
		IncludePoses:       doc.Poses,
		IncludeSilhouettes: doc.Silhouettes,
	}
	if doc.ManualFirst != nil {
		if len(doc.ManualFirst.Rho) != stickmodel.NumSticks {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("manual_first.rho needs %d angles, got %d", stickmodel.NumSticks, len(doc.ManualFirst.Rho)))
			return core.Request{}, false
		}
		req.ManualFirst = stickmodel.Pose{X: doc.ManualFirst.X, Y: doc.ManualFirst.Y}
		copy(req.ManualFirst.Rho[:], doc.ManualFirst.Rho)
	}
	if doc.Stages != "" {
		sel, err := core.ParseStageSelection(doc.Stages)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return core.Request{}, false
		}
		req.Stages = sel
	}
	return req, true
}
