package telemetry

import (
	"net/http"
)

// Handler returns the HTTP endpoints for g on a fresh mux:
//
//	/metrics         Prometheus text exposition (version 0.0.4)
//	/telemetry.json  the JSON snapshot document (schema mprs-telemetry/1)
//
// Callers mount extra routes (pprof) on the returned mux; a fresh
// mux per run keeps repeated in-process runs (tests) away from the global
// DefaultServeMux registration panics.
func Handler(g Gatherer) *http.ServeMux {
	gather := func() []Point {
		if g == nil {
			return nil
		}
		return g.Gather()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, gather()); err != nil {
			_ = err // client went away mid-scrape; nothing to clean up
		}
	})
	mux.HandleFunc("/telemetry.json", func(w http.ResponseWriter, r *http.Request) {
		data, err := EncodeSnapshot(gathererFunc(gather))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(data); err != nil {
			_ = err // client went away mid-scrape
		}
	})
	return mux
}

// gathererFunc adapts a plain function to Gatherer.
type gathererFunc func() []Point

// Gather implements Gatherer.
func (f gathererFunc) Gather() []Point { return f() }
