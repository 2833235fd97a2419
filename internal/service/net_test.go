package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postQuery(t *testing.T, ts *httptest.Server, req Request) (*http.Response, *Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decode /query response: %v", err)
	}
	return hr, &resp
}

func TestHTTPFrontDoor(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.httpMux())
	defer ts.Close()

	// Happy path: 200 with rows.
	hr, resp := postQuery(t, ts, Request{ID: "h1", Query: "SELECT n_name FROM nation", MaxRows: 2})
	if hr.StatusCode != http.StatusOK || resp.Code != CodeOK {
		t.Fatalf("status %d code %s", hr.StatusCode, resp.Code)
	}
	if resp.ID != "h1" || len(resp.Rows) != 2 {
		t.Fatalf("resp = %+v", resp)
	}

	// Bad query: 400 with bad_query code.
	hr, resp = postQuery(t, ts, Request{Query: "SELEC oops"})
	if hr.StatusCode != http.StatusBadRequest || resp.Code != CodeBadQuery {
		t.Fatalf("bad query: status %d code %s", hr.StatusCode, resp.Code)
	}

	// Health and metrics ride the same mux.
	for _, path := range []string{"/healthz", "/metrics", "/debug/vars"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, r.StatusCode)
		}
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(text), "ftserve_admitted_total") {
		t.Error("/metrics missing ftserve families")
	}
}

// TestHTTPQueueFull429: a saturated server answers 429 with a Retry-After
// header (whole seconds, >= 1).
func TestHTTPQueueFull429(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.httpMux())
	defer ts.Close()
	ctx := context.Background()

	release, rej, err := s.admitGlobal(ctx, "holder")
	if err != nil || rej != nil {
		t.Fatalf("holder: %v %v", err, rej)
	}
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		postQuery(t, ts, Request{Tenant: "queued", Query: "SELECT n_name FROM nation"})
	}()
	for i := 0; s.QueueDepth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	hr, resp := postQuery(t, ts, Request{Tenant: "shed", Query: "SELECT n_name FROM nation"})
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", hr.StatusCode)
	}
	if resp.Code != string(rejectQueueFull) {
		t.Fatalf("code = %s, want queue_full", resp.Code)
	}
	if ra := hr.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want >= 1 second", ra)
	}
	if resp.RetryAfterSeconds <= 0 {
		t.Fatalf("RetryAfterSeconds = %g, want > 0", resp.RetryAfterSeconds)
	}
	release()
	<-parked
}

// TestHTTPDraining503: during drain /query answers 503 and /healthz flips.
func TestHTTPDraining503(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.httpMux())
	defer ts.Close()
	s.drain()

	hr, resp := postQuery(t, ts, Request{Query: "SELECT n_name FROM nation"})
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", hr.StatusCode)
	}
	if resp.Code != string(RejectDraining) {
		t.Fatalf("code = %s, want draining", resp.Code)
	}
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during drain = %d, want 503", r.StatusCode)
	}
}

// TestTCPClientErrors: the framed protocol surfaces rejects and bad queries
// as coded responses on a live TCP connection.
func TestTCPClientCodes(t *testing.T) {
	s := newTestServer(t, Config{TenantRate: 1.0 / 3600, TenantBurst: 1})
	addr, err := s.StartTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Do(Request{ID: "a", Tenant: "alice", Query: "SELECT n_name FROM nation"})
	if err != nil || resp.Code != CodeOK {
		t.Fatalf("first query: %v %+v", err, resp)
	}
	resp, err = c.Do(Request{ID: "b", Tenant: "alice", Query: "SELECT n_name FROM nation"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != string(rejectQuota) || resp.RetryAfterSeconds <= 0 {
		t.Fatalf("quota response = %+v", resp)
	}
	resp, err = c.Do(Request{ID: "c", Tenant: "bob", Query: "SELEC oops"})
	if err != nil || resp.Code != CodeBadQuery {
		t.Fatalf("bad query response: %v %+v", err, resp)
	}
}
