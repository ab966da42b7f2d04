// Worker-node intake: the HTTP half of the remote dispatch protocol.
//
// A front end running the fan-out dispatcher (internal/dispatch) does not
// re-upload multipart clips to worker nodes — it posts the serialized
// jobs.Payload it already built, and the worker node (slj-serve -worker)
// runs it through the exact same submit/poll lifecycle the front end would
// have used in-process:
//
//	POST /v1/worker/jobs   body: jobs.Payload JSON
//	  → 200 + AnalysisResponse   when the node's artifact store already
//	                             holds the answer (X-SLJ-Cache: hit);
//	  → 202 + submit document    otherwise; poll GET /v1/jobs/{id} and
//	                             fetch GET /v1/jobs/{id}/result as usual;
//	  → 503 + Retry-After        on queue backpressure.
//
// Because the worker executes the payload through the same executor and
// response builder as the front end, the result document is byte-identical
// to the in-process path.
//
// A payload may name its frames by content hash instead of carrying them
// inline (jobs.Payload.FramesRef, marked by the X-SLJ-Artifact-Payload
// header). Its request key names the frames by that hash (jobs.RefKey), so
// the result lookup needs no pixels: only a miss resolves the reference —
// from the node's own artifact store, pulling a miss from the originating
// front end (payload.ArtifactOrigin) and caching it locally.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/jobs"
)

// CacheHeader marks worker responses served from the node's stored results.
const CacheHeader = "X-SLJ-Cache"

// payloadCap bounds one payload upload. An inline clip that fits the front
// end's upload cap grows ~4/3 under the payload's base64 frame encoding
// (plus JSON overhead), so inline payloads get double the configured cap —
// anything the front accepted must also fit here. A by-reference payload
// carries hashes instead of frames and needs no such headroom: it gets
// exactly the configured cap.
func (s *Server) payloadCap(r *http.Request) int64 {
	if r.Header.Get(jobs.ArtifactPayloadHeader) == "1" {
		return s.maxPayload
	}
	return 2 * s.maxPayload
}

// handleWorkerJobs accepts one serialized job payload from a remote
// dispatcher.
func (s *Server) handleWorkerJobs(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.payloadCap(r))
	var p jobs.Payload
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode payload: %v", err))
		return
	}
	// Consult the node's own stored results under the node's own config
	// fingerprint — a hash-routed resubmission of an identical clip is
	// answered here without enqueueing anything, and without reading the
	// frames of a by-reference one.
	req, err := p.AnalysisRequest()
	var key jobs.Key
	if err == nil {
		key, err = jobs.RefKey(s.cfgFP, p.FramesRef, req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if hash, cached, hit := s.artifacts.Result(key); hit {
		w.Header().Set(CacheHeader, "hit")
		writeDoc(w, http.StatusOK, artifacts.ResultDoc(cached))
		s.log.Debug("worker cache hit", "key", key.String())
		if s.replica != nil && p.ReplicaTarget != "" {
			// A hit bypasses the executor's push, but the successor may
			// still lack this result (e.g. it was stored before replication
			// was enabled, or the push was dropped) — mirror it on the way
			// out; the sink skips what it already delivered.
			s.replica.ReplicateResult(p.ReplicaTarget, hash, cached)
		}
		return
	}
	if p.FramesRef != "" {
		if req.Frames, err = artifacts.ResolveFrames(s.resolver(p.ArtifactOrigin), p.FramesRef); err != nil {
			writeResolveError(w, err)
			return
		}
	}
	if err := req.Validate(s.cfg.Windows); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Hand the executor the request this intake decoded (and resolved) and
	// the key it computed over it under s.cfgFP, so the job neither decodes
	// nor hashes the clip a second time.
	s.submitPayload(w, r, p.WithResolved(req, key, s.cfgFP))
}
