package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"

	"ftpde/internal/obs"
)

// StartTCP binds addr (":0" picks a free port) and serves the framed
// protocol in the background. Returns the bound address.
func (s *Server) StartTCP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("service: listen: %w", err)
	}
	s.nmu.Lock()
	s.lns = append(s.lns, ln)
	s.nmu.Unlock()
	s.lwg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.lwg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (Close)
		}
		s.nmu.Lock()
		s.conns[conn] = true
		s.nmu.Unlock()
		s.lwg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn serves one synchronous request/response stream.
func (s *Server) handleConn(conn net.Conn) {
	defer s.lwg.Done()
	defer func() {
		conn.Close()
		s.nmu.Lock()
		delete(s.conns, conn)
		s.nmu.Unlock()
	}()
	for {
		var req Request
		if err := ReadFrame(conn, &req); err != nil {
			return // EOF, reset, or corrupt frame: drop the connection
		}
		resp := s.handle(context.Background(), req)
		if err := WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// handle maps Submit's typed errors onto a Response, shared by the TCP and
// HTTP front doors.
func (s *Server) handle(ctx context.Context, req Request) *Response {
	resp, err := s.Submit(ctx, req)
	if err == nil {
		return resp
	}
	out := &Response{ID: req.ID, Code: CodeError, Error: err.Error()}
	if rej, ok := AsReject(err); ok {
		out.Code = string(rej.Code)
		out.RetryAfterSeconds = rej.RetryAfter.Seconds()
	} else if qe := (*QueryError)(nil); errors.As(err, &qe) && qe.Phase == "plan" {
		out.Code = CodeBadQuery
	}
	return out
}

// httpMux returns the HTTP front door: the full obs debug vocabulary
// (/metrics, /debug/vars, /debug/queries, /debug/timeline, /debug/trace,
// /debug/pprof/*) plus POST /query and GET /healthz.
func (s *Server) httpMux() *http.ServeMux {
	mux := obs.DebugMux(s.tracer, func() any { return s.Stats() }, s.reg, s.progress)
	mux.HandleFunc("/query", s.handleHTTPQuery)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// StartHTTP binds addr and serves httpMux in the background.
func (s *Server) StartHTTP(addr string) (string, error) {
	srv, err := obs.StartMux(addr, s.httpMux())
	if err != nil {
		return "", err
	}
	s.nmu.Lock()
	s.debug = srv
	s.nmu.Unlock()
	return srv.Addr(), nil
}

// handleHTTPQuery accepts a JSON Request body and replies with a JSON
// Response. Load-shed rejects map to 429 (503 when draining) and carry a
// Retry-After header; bad queries map to 400, execution faults to 500.
func (s *Server) handleHTTPQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON Request", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxFrameBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := s.handle(r.Context(), req)
	w.Header().Set("Content-Type", "application/json")
	switch resp.Code {
	case CodeOK:
		// 200
	case CodeBadQuery:
		w.WriteHeader(http.StatusBadRequest)
	case CodeError:
		w.WriteHeader(http.StatusInternalServerError)
	default:
		// Typed load-shed rejects: surface the backoff hint as a standard
		// Retry-After header (whole seconds, rounded up).
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(resp.RetryAfterSeconds))))
		if resp.Code == string(RejectDraining) {
			w.WriteHeader(http.StatusServiceUnavailable)
		} else {
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}
	enc := json.NewEncoder(w)
	enc.Encode(resp)
}
