// Fleet administration and successor replication: the HTTP half of the
// elastic dispatch membership (internal/dispatch).
//
// A front end whose job backend implements jobs.Fleet (the remote
// dispatcher) exposes runtime topology control:
//
//	GET  /v1/fleet          current membership (epoch + per-node state)
//	POST /v1/fleet/nodes    {"url": ..., "weight": n} — join after a
//	                        passing health probe (502 on probe failure)
//	POST /v1/fleet/drain    {"url": ...} — stop routing new keys; the node
//	                        is removed once its running jobs finish, or
//	                        at once if it fails a health probe
//
// Successor replication pushes blobs to the ring successor's POST
// /v1/artifacts, finished results as result/v1 blobs, so a failover re-hash
// of the same key is answered without recomputing. Only worker nodes
// accept result blobs: the worker surface trusts its fleet peers, the same
// trust domain as POST /v1/worker/jobs (DESIGN.md §16).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

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

// handleFleet serves GET /v1/fleet: the membership view plus the member
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
