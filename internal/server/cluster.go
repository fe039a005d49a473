package server

import (
	"errors"
	"net/http"

	"bomw/internal/cluster"
)

// ---- /v1/cluster and /v1/nodes -----------------------------------------

// nodeJSON flattens one NodeSnapshot for the wire.
func nodeJSON(n cluster.NodeSnapshot) map[string]interface{} {
	return map[string]interface{}{
		"name":                n.Name,
		"state":               n.State,
		"evicted":             n.Evicted,
		"suspect":             n.Suspect,
		"chaos_down":          n.ChaosDown,
		"avg_latency_us":      n.AvgLatency.Microseconds(),
		"routed":              n.Routed,
		"rerouted":            n.Rerouted,
		"submitted":           n.Submitted,
		"completed":           n.Completed,
		"shed":                n.Shed,
		"infeasible":          n.Infeasible,
		"cancelled":           n.Cancelled,
		"expired":             n.Expired,
		"failed":              n.Failed,
		"batches":             n.Batches,
		"in_flight":           n.InFlight,
		"slo_attainment":      n.SLOAttainment,
		"devices":             n.Devices,
		"quarantined_devices": n.QuarantinedDevices,
		"degraded_devices":    n.DegradedDevices,
	}
}

// handleCluster exposes fleet-wide statistics — routing activity,
// membership churn, aggregated serving counters, the per-node rows, and
// the resilience tier (hedging/migration counters, scripted chaos state,
// brownout controller) — and accepts operator control POSTs.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		s.handleClusterControl(w, r)
		return
	default:
		methodNotAllowed(w, "GET, POST")
		return
	}
	st := s.fleet.Stats()
	perNode := make([]map[string]interface{}, 0, len(st.PerNode))
	for _, n := range st.PerNode {
		perNode = append(perNode, nodeJSON(n))
	}
	suspects := s.fleet.Suspects()
	if suspects == nil {
		suspects = []string{}
	}
	bro := s.fleet.Brownout()
	out := map[string]interface{}{
		"policy":         st.Policy,
		"nodes":          st.Nodes,
		"ready":          st.Ready,
		"submits":        st.Submits,
		"route_failures": st.RouteFailures,
		"evictions":      st.Evictions,
		"readmissions":   st.Readmissions,
		"submitted":      st.Submitted,
		"completed":      st.Completed,
		"shed":           st.Shed,
		"infeasible":     st.Infeasible,
		"cancelled":      st.Cancelled,
		"expired":        st.Expired,
		"failed":         st.Failed,
		"batches":        st.Batches,
		"in_flight":      st.InFlight,
		"slo_attainment": st.SLOAttainment,
		"resilience": map[string]interface{}{
			"node_hedges":       st.NodeHedges,
			"node_hedges_won":   st.NodeHedgesWon,
			"hedges_suppressed": st.HedgesSuppressed,
			"migrations":        st.Migrations,
			"suspicions":        st.Suspicions,
			"probations":        st.Probations,
			"false_suspects":    st.FalseSuspects,
			"probes":            st.Probes,
			"benign_cancels":    st.BenignCancels,
			"suspects":          suspects,
		},
		"brownout": map[string]interface{}{
			"enabled":        bro.Enabled,
			"level":          bro.Level,
			"occupancy_ewma": bro.OccupancyEWMA,
			"sheds":          bro.Sheds,
			"transitions":    bro.Transitions,
			"window_scale":   bro.WindowScale,
			"thresholds":     bro.Thresholds,
			"hysteresis":     bro.Hysteresis,
		},
		"per_node": perNode,
	}
	chaos := map[string]interface{}{
		"enabled":    false,
		"trips":      st.ChaosTrips,
		"recoveries": st.ChaosRecoveries,
	}
	if ci := s.fleet.Chaos(); ci != nil {
		chaos["enabled"] = true
		chaos["plans"] = ci.Plans()
	}
	out["chaos"] = chaos
	writeJSON(w, out)
}

// ClusterAction is the POST /v1/cluster payload: one fleet-wide control
// action.
type ClusterAction struct {
	Action string `json:"action"` // sweep
}

// handleClusterControl applies fleet-wide operator actions. "sweep" runs
// a health sweep immediately — membership reconciliation, chaos-window
// edges and straggler detection without waiting for the submission-
// driven cadence, the operator's lever after changing node state.
func (s *Server) handleClusterControl(w http.ResponseWriter, r *http.Request) {
	var req ClusterAction
	if !decodeBody(w, r, "cluster action", &req) {
		return
	}
	switch req.Action {
	case "sweep":
		s.fleet.Sweep()
	default:
		httpError(w, http.StatusBadRequest, "unknown action %q (want sweep)", req.Action)
		return
	}
	writeJSON(w, map[string]string{"action": req.Action, "status": "ok"})
}

// NodeAction is the POST /v1/nodes payload: one lifecycle action on one
// named node.
type NodeAction struct {
	Node   string `json:"node"`
	Action string `json:"action"` // drain | evict | readmit | kill
}

// handleNodes lists per-node state and health (GET) and applies
// lifecycle actions (POST): drain (stop routing, complete accepted work),
// evict (stop routing only), readmit (resume routing a healthy node),
// kill (fail-stop for failure drills).
func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		var out []map[string]interface{}
		for _, nd := range s.nodes {
			h := nd.Health()
			out = append(out, map[string]interface{}{
				"name":                nd.Name(),
				"state":               h.State.String(),
				"ready":               h.Ready,
				"load":                nd.Load(),
				"devices":             h.Devices,
				"quarantined_devices": h.Quarantined,
				"degraded_devices":    h.Degraded,
				"exec_failures":       h.ExecFailures,
			})
		}
		writeJSON(w, map[string]interface{}{"nodes": out})
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
