package server

import (
	"errors"
	"net/http"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/fault"
)

// ---- /v1/cluster and /v1/nodes -----------------------------------------

// clusterWire is the GET /v1/cluster body: the fleet snapshot as its
// struct serialises, its chaos block shadowed by one that adds the
// armed fault plan.
type clusterWire struct {
	cluster.FleetStats
	Chaos struct {
		Enabled bool `json:"enabled"`
		cluster.ChaosCounts
		Plan *fault.Plan `json:"plan"` // the armed fault plan; null when none is
	} `json:"chaos"`
}

// handleCluster exposes fleet-wide statistics — routing activity,
// membership, aggregated serving counters, the per-node rows, and the
// chaos block (down-window edges, the scripted fault plan).
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET")
		return
	}
	st := s.fleet.Stats()
	out := clusterWire{FleetStats: st}
	out.Chaos.ChaosCounts = st.ChaosCounts
	if in := s.fleet.Faults(); in != nil {
		plan := in.Plan()
		out.Chaos.Enabled, out.Chaos.Plan = true, &plan
	}
	writeJSON(w, out)
}

// NodeAction is the POST /v1/nodes payload: one lifecycle action on one
// named node.
type NodeAction struct {
	Node   string `json:"node"`
	Action string `json:"action"` // drain | evict | readmit | kill
}

// nodeWire is one GET /v1/nodes row: a node's health summary beside its
// name and instantaneous load.
type nodeWire struct {
	Name string `json:"name"`
	Load int64  `json:"load"`
	core.NodeHealth
}

// handleNodes lists per-node state and health (GET) and applies
// lifecycle actions (POST): drain (stop routing, complete accepted work),
// evict (stop routing only), readmit (resume routing a healthy node),
// kill (fail-stop for failure drills).
func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		out := make([]nodeWire, len(s.nodes))
		for i, nd := range s.nodes {
			out[i] = nodeWire{Name: nd.Name(), Load: nd.Load(), NodeHealth: nd.Health()}
		}
		writeJSON(w, map[string][]nodeWire{"nodes": out})
	case http.MethodPost:
		var req NodeAction
		if !decodeBody(w, r, "node action", &req) {
			return
		}
		var err error
		switch req.Action {
		case "drain":
			err = s.fleet.Drain(req.Node)
		case "evict":
			err = s.fleet.Evict(req.Node)
		case "readmit":
			err = s.fleet.Readmit(req.Node)
		case "kill":
			err = s.fleet.Kill(req.Node)
		default:
			httpError(w, http.StatusBadRequest, "unknown action %q (want drain, evict, readmit or kill)", req.Action)
			return
		}
		switch {
		case errors.Is(err, cluster.ErrUnknownNode):
			httpError(w, http.StatusNotFound, "%v", err)
			return
		case err != nil:
			// Readmitting a node that is not healthy enough to serve.
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, map[string]string{"node": req.Node, "action": req.Action, "status": "ok"})
	default:
		methodNotAllowed(w, "GET, POST")
	}
}
