package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"ftpde/internal/obs/metrics"
)

// DebugServer is the opt-in live-introspection endpoint ftsql mounts with
// -debug-addr (ftserve mounts the same mux on -http). It serves:
//
//	/metrics         the metric registry in Prometheus text exposition format
//	/debug/vars      expvar-style JSON snapshot (caller-supplied metrics +
//	                 tracer counters + the registry snapshot)
//	/debug/queries   live per-query progress (in-flight + recently finished)
//	/debug/timeline  the merged span timeline as JSON
//	/debug/trace     the timeline in Chrome trace_event format
//	/debug/pprof/*   net/http/pprof
type DebugServer struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// StartDebug binds addr (":0" picks a free port) and serves in the
// background. metricsFn may be nil; when set, its return value is embedded in
// /debug/vars under "metrics". reg may be nil; when set it backs /metrics and
// the "registry" key of /debug/vars, and the tracer's span/dropped counters
// are registered into it as metric families. progress may be nil; when set it
// backs /debug/queries and its counters join the registry.
func StartDebug(addr string, tracer *Tracer, metricsFn func() any, reg *metrics.Registry, progress *ProgressRegistry) (*DebugServer, error) {
	return StartMux(addr, DebugMux(tracer, metricsFn, reg, progress))
}

// DebugMux builds the introspection mux StartDebug serves, so other servers
// (the ftserve HTTP front door) can mount their own handlers next to the
// debug vocabulary instead of running a second listener. Semantics of the
// tracer/metricsFn/reg/progress parameters match StartDebug.
func DebugMux(tracer *Tracer, metricsFn func() any, reg *metrics.Registry, progress *ProgressRegistry) *http.ServeMux {
	if reg != nil {
		RegisterTraceMetrics(reg, tracer)
		if progress != nil {
			RegisterProgressMetrics(reg, progress)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		if reg == nil {
			return
		}
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		vars := map[string]any{
			"uptime_seconds": time.Since(tracer.Epoch()).Seconds(),
			"trace": map[string]any{
				"spans":   len(tracer.Snapshot()),
				"dropped": tracer.Dropped(),
			},
		}
		if metricsFn != nil {
			vars["metrics"] = metricsFn()
		}
		if reg != nil {
			vars["registry"] = reg.Snapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(vars)
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		progress.ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteJSON(w, tracer)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteChromeTrace(w, tracer)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartMux binds addr and serves the given mux in the background.
func StartMux(addr string, mux *http.ServeMux) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	s := &DebugServer{
		srv:  &http.Server{Handler: mux},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// RegisterTraceMetrics exposes a tracer's counters as metric families:
// ftpde_trace_spans (gauge, currently buffered spans) and
// ftpde_trace_dropped_total (spans lost to ring-buffer overflow). Safe to
// call with families already registered (re-registration is a no-op), so
// callers can compose it with their own wiring.
func RegisterTraceMetrics(reg *metrics.Registry, tracer *Tracer) {
	// A second registration of the same name is the common path when the CLI
	// both lists metrics and starts the server; ignore the duplicate error.
	_ = reg.RegisterFunc(metrics.Desc{
		Name: "ftpde_trace_spans", Kind: metrics.KindGauge,
		Help: "Spans currently buffered in the tracer's ring buffers.",
	}, func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(len(tracer.Snapshot()))}}
	})
	_ = reg.RegisterFunc(metrics.Desc{
		Name: "ftpde_trace_dropped_total", Kind: metrics.KindCounter,
		Help: "Spans dropped because a tracer ring buffer wrapped.",
	}, func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(tracer.Dropped())}}
	})
}

// Addr returns the bound address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *DebugServer) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
