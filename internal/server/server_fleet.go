// Fleet administration and successor-replica intake: the HTTP half of the
// elastic dispatch membership (internal/dispatch).
//
// A front end whose job backend implements jobs.Fleet (the remote
// dispatcher) exposes runtime topology control:
//
//	GET  /v1/fleet          current membership (epoch + per-node state)
//	POST /v1/fleet/nodes    {"url": ..., "weight": n} — join after a
//	                        passing health probe (502 on probe failure)
//	POST /v1/fleet/drain    {"url": ...} — stop routing new keys; the node
//	                        is removed once its running jobs finish
//	POST /v1/fleet/remove   {"url": ...} — drop immediately (force path)
//
// Worker nodes additionally accept successor-replication pushes:
//
//	POST /v1/worker/replica {"key": <hex cache key>, "response": {...}}
//
// storing the pushed response document in the node's result cache so a
// failover re-hash of the same key is answered without recomputing. The
// intake trusts its fleet peers — it sits on the worker surface, the same
// trust domain as POST /v1/worker/jobs (DESIGN.md §16).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/sljmotion/sljmotion/internal/cache"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/obs"
)

// requireFleet answers 501 when the backend has no fleet.
func (s *Server) requireFleet(w http.ResponseWriter) bool {
	if s.fleet == nil {
		writeError(w, http.StatusNotImplemented, "fleet management is not supported by this backend")
		return false
	}
	return true
}

// handleFleet serves GET /v1/fleet: the membership view plus the
// observability rollup — the fleet-wide SLO document and the member
// scrape bookkeeping (from cache only; listing the fleet must never
// trigger a scrape sweep).
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if !s.requireFleet(w) {
		return
	}
	view := s.fleet.Fleet()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":      view.Epoch,
		"nodes":      view.Nodes,
		"slo":        s.slo.Doc(),
		"federation": s.fleet.FederationStats(),
	})
}

// handleFleetMetrics serves GET /v1/fleet/metrics: the merged Prometheus
// exposition of every fleet member, each sample labelled with its node.
func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusNotImplemented, "metrics federation is not supported by this backend")
		return
	}
	merged, _, err := s.fleet.FederatedMetrics()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("federate metrics: %v", err))
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.Write(merged)
}

// fleetNodeDoc is the request body of the fleet mutation routes.
type fleetNodeDoc struct {
	URL    string `json:"url"`
	Weight int    `json:"weight,omitempty"`
}

// decodeFleetNode parses one mutation body.
func decodeFleetNode(w http.ResponseWriter, r *http.Request) (fleetNodeDoc, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	var doc fleetNodeDoc
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode fleet request: %v", err))
		return fleetNodeDoc{}, false
	}
	if doc.URL == "" {
		writeError(w, http.StatusBadRequest, "missing node url")
		return fleetNodeDoc{}, false
	}
	return doc, true
}

// handleFleetJoin serves POST /v1/fleet/nodes: the worker registration
// endpoint. The node is admitted only after its health probe passes.
func (s *Server) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	if !s.requireFleet(w) {
		return
	}
	doc, ok := decodeFleetNode(w, r)
	if !ok {
		return
	}
	view, err := s.fleet.JoinNode(doc.URL, doc.Weight)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	s.log.Info("fleet join", "node", doc.URL, "weight", doc.Weight, "epoch", view.Epoch)
	writeJSON(w, http.StatusOK, view)
}

// handleFleetDrain serves POST /v1/fleet/drain.
func (s *Server) handleFleetDrain(w http.ResponseWriter, r *http.Request) {
	if !s.requireFleet(w) {
		return
	}
	doc, ok := decodeFleetNode(w, r)
	if !ok {
		return
	}
	view, err := s.fleet.DrainNode(doc.URL)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	s.log.Info("fleet drain", "node", doc.URL, "epoch", view.Epoch)
	writeJSON(w, http.StatusOK, view)
}

// handleFleetRemove serves POST /v1/fleet/remove.
func (s *Server) handleFleetRemove(w http.ResponseWriter, r *http.Request) {
	if !s.requireFleet(w) {
		return
	}
	doc, ok := decodeFleetNode(w, r)
	if !ok {
		return
	}
	view, err := s.fleet.RemoveNode(doc.URL)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	s.log.Info("fleet remove", "node", doc.URL, "epoch", view.Epoch)
	writeJSON(w, http.StatusOK, view)
}

// writeFleetError maps the jobs fleet sentinels onto HTTP statuses.
func writeFleetError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrNodeUnknown):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, jobs.ErrNodeUnhealthy):
		writeError(w, http.StatusBadGateway, err.Error())
	case errors.Is(err, jobs.ErrLastNode):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// replicaDoc is the body of POST /v1/worker/replica.
type replicaDoc struct {
	Key      string          `json:"key"`
	Response json.RawMessage `json:"response"`
}

// handleWorkerReplica accepts one replicated result: the pushed response
// document is decoded and stored in this node's result cache under the
// pushed key, exactly as if this node had computed it. Storing the decoded
// struct (not the raw bytes) keeps the cache homogeneous — every later
// reader re-serialises through writeJSON, so a replicated answer is
// byte-identical to a locally computed one. A node without a result cache
// accepts and drops the push (204 either way: replication is best-effort).
func (s *Server) handleWorkerReplica(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	var doc replicaDoc
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode replica: %v", err))
		return
	}
	key, ok := cache.ParseKey(doc.Key)
	if !ok {
		writeError(w, http.StatusBadRequest, "malformed cache key")
		return
	}
	if len(doc.Response) == 0 {
		writeError(w, http.StatusBadRequest, "missing response document")
		return
	}
	var resp AnalysisResponse
	if err := json.Unmarshal(doc.Response, &resp); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode replica response: %v", err))
		return
	}
	s.replMu.Lock()
	s.replicaReceived++
	s.replMu.Unlock()
	if s.cache != nil {
		s.cache.Put(key, &resp)
		s.replMu.Lock()
		s.replicaStored++
		s.replMu.Unlock()
		s.log.Debug("replica stored", "key", doc.Key)
	}
	w.WriteHeader(http.StatusNoContent)
}

// onCacheStore is the result cache's write-through hook: a fill whose key
// belongs to an in-flight job with a replica target is mirrored there. The
// replica intake's own Puts find no registered target and stay local — no
// replication cascade.
func (s *Server) onCacheStore(k cache.Key, v any) {
	s.replMu.Lock()
	target, ok := s.replTargets[k]
	s.replMu.Unlock()
	if !ok || target == "" {
		return
	}
	resp, isResp := v.(*AnalysisResponse)
	if !isResp {
		return
	}
	doc, err := json.Marshal(resp)
	if err != nil {
		return
	}
	s.replica.ReplicateResult(target, k.String(), doc)
}

// onArtifactStore is the artifact store's write-through hook: a blob stored
// while replicating jobs are in flight (a worker pull mid-resolution, an
// ingest append) is mirrored to every active target. The sink deduplicates
// per target and hash, so overlapping jobs cost one push.
func (s *Server) onArtifactStore(hash string, blob []byte) {
	s.replMu.Lock()
	targets := make([]string, 0, len(s.replActive))
	for t := range s.replActive {
		targets = append(targets, t)
	}
	s.replMu.Unlock()
	for _, t := range targets {
		s.replica.ReplicateArtifact(t, hash, blob)
	}
}

// replicationMetrics is the /v1/metrics "replication" section, present only
// on nodes wired with a replica sink.
type replicationMetrics struct {
	Push            jobs.ReplicaMetrics `json:"push"`
	ResultsReceived uint64              `json:"results_received"`
	ResultsStored   uint64              `json:"results_stored"`
}

// replicationSnapshot builds the metrics section; ok is false without a
// sink (the JSON document stays byte-compatible with earlier releases).
func (s *Server) replicationSnapshot() (replicationMetrics, bool) {
	if s.replica == nil {
		return replicationMetrics{}, false
	}
	s.replMu.Lock()
	rec, stored := s.replicaReceived, s.replicaStored
	s.replMu.Unlock()
	return replicationMetrics{
		Push:            s.replica.ReplicaMetrics(),
		ResultsReceived: rec,
		ResultsStored:   stored,
	}, true
}
