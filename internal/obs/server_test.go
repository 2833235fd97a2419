package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"ftpde/internal/obs/metrics"
)

func TestDebugServerEndpoints(t *testing.T) {
	tr := NewTracer(256)
	tr.Record(instant(KindStage, "scan", -1, -1))
	reg := metrics.NewRegistry()
	RegisterTraceMetrics(reg, tr)
	c := reg.NewCounter("ftpde_test_rows_total", "Rows for the endpoint test.")
	c.Add(7)
	h := reg.NewHistogramVec("ftpde_test_wall_seconds", "Wall time.", "seconds",
		[]string{"stage"}, []float64{0.001, 0.1})
	h.With("scan").Observe(0.01)
	srv, err := StartDebug("127.0.0.1:0", tr, func() any {
		return map[string]int{"rows": 7}
	}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) ([]byte, http.Header) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body, resp.Header
	}

	varsBody, _ := get("/debug/vars")
	var vars map[string]any
	if err := json.Unmarshal(varsBody, &vars); err != nil {
		t.Fatalf("/debug/vars does not parse: %v", err)
	}
	if vars["metrics"].(map[string]any)["rows"].(float64) != 7 {
		t.Errorf("vars metrics = %v", vars["metrics"])
	}
	if _, ok := vars["registry"]; !ok {
		t.Error("/debug/vars missing registry snapshot")
	}

	tlBody, _ := get("/debug/timeline")
	var tl Timeline
	if err := json.Unmarshal(tlBody, &tl); err != nil {
		t.Fatalf("/debug/timeline does not parse: %v", err)
	}
	if len(tl.Spans) != 1 {
		t.Errorf("timeline spans = %d, want 1", len(tl.Spans))
	}

	traceBody, _ := get("/debug/trace")
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBody, &trace); err != nil {
		t.Fatalf("/debug/trace does not parse: %v", err)
	}
	if len(trace.TraceEvents) != 1 {
		t.Errorf("trace events = %d, want 1", len(trace.TraceEvents))
	}

	if body, _ := get("/debug/pprof/"); len(body) == 0 {
		t.Error("pprof index is empty")
	}
}

// TestMetricsEndpointServesPrometheus is the acceptance check that
// `curl /metrics` returns valid Prometheus text exposition.
func TestMetricsEndpointServesPrometheus(t *testing.T) {
	tr := NewTracer(4) // clamps to 64 spans; overflow the ring
	for i := 0; i < 65; i++ {
		tr.Record(instant(KindStage, "s", -1, -1))
	}
	if tr.Dropped() == 0 {
		t.Fatal("tracer ring did not overflow; test setup is wrong")
	}
	reg := metrics.NewRegistry()
	RegisterTraceMetrics(reg, tr)
	RegisterTraceMetrics(reg, tr) // idempotent: second call must not panic
	h := reg.NewHistogramVec("ftpde_stage_wall_seconds", "Stage wall time.", "seconds",
		[]string{"runtime", "stage"}, metrics.DefaultLatencyBuckets())
	h.With("pipelined", "scan").Observe(0.002)
	h.With("staged", "scan").Observe(0.004)

	srv, err := StartDebug("127.0.0.1:0", tr, nil, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != metrics.ContentType {
		t.Errorf("content type %q, want %q", got, metrics.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Validate the exposition line by line: every series line must parse as
	// name{labels} value, and every family must carry a TYPE header.
	typed := map[string]bool{}
	series := 0
	for ln, line := range strings.Split(text, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE %q", ln+1, line)
			}
			typed[parts[0]] = true
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: no value separator in %q", ln+1, line)
			}
			name := line[:sp]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				if !strings.HasSuffix(name, "}") {
					t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
				}
				name = name[:i]
			}
			fam := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if typed[strings.TrimSuffix(name, suf)] {
					fam = strings.TrimSuffix(name, suf)
				}
			}
			if !typed[fam] {
				t.Fatalf("line %d: series %q has no TYPE header", ln+1, name)
			}
			series++
		}
	}
	if series == 0 {
		t.Fatal("no series in /metrics output")
	}
	for _, want := range []string{
		fmt.Sprintf("ftpde_trace_dropped_total %d", tr.Dropped()),
		`ftpde_stage_wall_seconds_count{runtime="pipelined",stage="scan"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsEndpointNilRegistry pins that /metrics stays a 200 with an empty
// body when no registry was wired up.
func TestMetricsEndpointNilRegistry(t *testing.T) {
	srv, err := StartDebug("127.0.0.1:0", nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status %d, want 200", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 0 {
		t.Errorf("nil-registry /metrics body = %q, want empty", body)
	}
}

// TestDebugQueriesEndpoint pins the /debug/queries contract: live progress as
// JSON, progress metric families registered into the shared registry, and a
// nil progress registry degrading to an empty snapshot instead of a 404.
func TestDebugQueriesEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	pr := NewProgressRegistry(4)
	p := pr.Begin("tenant-a", "q1")
	p.Observe(Span{Kind: KindTask, Name: "scan", Part: 0, Rows: 25, Parts: 4})
	p.SetPrediction(2, map[string]StagePrediction{"scan": {Runtime: 2}})

	srv, err := StartDebug("127.0.0.1:0", nil, nil, reg, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/queries status %d", resp.StatusCode)
	}
	var snap QueriesSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Active) != 1 || snap.Active[0].Tenant != "tenant-a" {
		t.Fatalf("active = %+v", snap.Active)
	}
	if snap.Active[0].Stages[0].DoneParts != 1 || snap.Active[0].Stages[0].Rows != 25 {
		t.Errorf("stage = %+v", snap.Active[0].Stages[0])
	}
	if snap.Active[0].EtaSeconds <= 0 {
		t.Errorf("eta = %g, want > 0", snap.Active[0].EtaSeconds)
	}

	// StartDebug with a registry must have wired the progress families.
	mresp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"ftpde_queries_inflight 1", "ftpde_queries_tracked_total 1"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q:\n%s", want, mbody)
		}
	}

	// Nil progress registry: the endpoint still answers with an empty doc.
	srv2, err := StartDebug("127.0.0.1:0", nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp2, err := http.Get("http://" + srv2.Addr() + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("nil-progress /debug/queries status %d", resp2.StatusCode)
	}
}
