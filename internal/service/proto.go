// Package service implements ftserve: a long-lived multi-tenant query
// service on top of the sql -> core -> cost planning pipeline and the
// pipelined runtime. Many queries execute concurrently on one shared bounded
// worker pool (runtime.Pool); admission control sheds load with typed
// rejects, per-tenant token buckets and concurrency caps keep tenants from
// starving each other, and the fault-tolerance optimizer picks each query's
// materialization configuration from the paper's cost model.
//
// The wire protocol is deliberately small: a 4-byte big-endian length prefix
// followed by one JSON document per frame, one Request/Response pair at a
// time per connection. The same Request/Response types ride the HTTP front
// door (POST /query on the debug mux).
package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
)

// MaxFrameBytes bounds a single protocol frame; larger frames indicate a
// corrupt stream (or an abusive client) and kill the connection.
const MaxFrameBytes = 64 << 20

// frameChunk bounds what ReadFrame allocates before a frame's bytes arrive.
const frameChunk = 64 << 10

// Request is one query submission.
type Request struct {
	// ID is an opaque client token echoed in the response.
	ID string `json:"id,omitempty"`
	// Tenant names the quota bucket; empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Query is the SQL text, planned against the server's TPC-H catalog.
	Query string `json:"query"`
	// MaxRows truncates the rows returned (not computed); 0 returns all.
	MaxRows int `json:"max_rows,omitempty"`
}

// Response codes. Rejections mirror the typed *Reject errors of the
// admission layer; "error" covers parse/plan/execution failures.
const (
	CodeOK       = "ok"
	CodeBadQuery = "bad_query"
	CodeError    = "error"
)

// Response is the outcome of one Request.
type Response struct {
	ID   string `json:"id,omitempty"`
	Code string `json:"code"`
	// Error is set for every non-ok code.
	Error string `json:"error,omitempty"`
	// RetryAfterSeconds is the backoff hint accompanying load-shed rejects.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`

	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// RowsTotal is the full result cardinality even when Rows is truncated.
	RowsTotal int `json:"rows_total"`

	// Execution report: injected failures handled, partitions recomputed by
	// fine-grained recovery, partitions checkpointed, and the query's
	// wasted-work ledger total (the realized w(c) attributed to the tenant).
	Failures      int     `json:"failures"`
	Recovered     int     `json:"recovered"`
	Materialized  int     `json:"materialized"`
	WastedSeconds float64 `json:"wasted_seconds"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// MatConfig is the materialization configuration the query ran with.
	MatConfig string `json:"mat_config,omitempty"`
}

// WriteFrame writes one length-prefixed JSON frame.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("service: encode frame: %w", err)
	}
	if len(body) > MaxFrameBytes {
		return fmt.Errorf("service: frame of %d bytes exceeds limit %d", len(body), MaxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed JSON frame into v.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return fmt.Errorf("service: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	// The header is only the peer's claim: the body grows with the bytes
	// that arrive (doubling, at most to n), so a header claiming
	// MaxFrameBytes followed by nothing costs one chunk, not the claim.
	body := make([]byte, 0, min(int(n), frameChunk))
	for len(body) < int(n) {
		body = slices.Grow(body, min(int(n)-len(body), max(len(body), frameChunk)))
		m, err := io.ReadFull(r, body[len(body):min(cap(body), int(n))])
		body = body[:len(body)+m]
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("service: decode frame: %w", err)
	}
	return nil
}

// Client is a synchronous protocol client: one request/response in flight
// per connection (the closed-loop shape benchmark/'s serve_mixed sessions use).
type Client struct {
	conn net.Conn
}

// Dial connects to an ftserve TCP endpoint.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Do sends one request and waits for its response.
func (c *Client) Do(req Request) (*Response, error) {
	if err := WriteFrame(c.conn, req); err != nil {
		return nil, err
	}
	var resp Response
	if err := ReadFrame(c.conn, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
