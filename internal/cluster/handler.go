package cluster

import (
	"net/http"

	"st4ml/internal/serve"
)

// The router speaks the same client protocol as a single stserved daemon —
// it mounts serve's own POST /query handler and probes — so stquery and
// every other client work unchanged whether they point at one node or a
// fleet.

// Handler returns the router's HTTP routes.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", r.QueryHandler(r.Query))
	mux.HandleFunc("GET /datasets", func(w http.ResponseWriter, req *http.Request) {
		serve.WriteJSON(w, http.StatusOK, r.catalog.List())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		serve.WriteJSON(w, http.StatusOK, MetricsResponse{
			Router: r.Stats(),
			Shards: r.ShardStatuses(),
		})
	})
	r.Probes(mux)
	return mux
}

// MetricsResponse is the router's GET /metrics body.
type MetricsResponse struct {
	Router RouterStats   `json:"router"`
	Shards []ShardStatus `json:"shards"`
}
