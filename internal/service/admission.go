package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ftpde/internal/obs/metrics"
)

// RejectCode classifies a load-shed decision.
type RejectCode string

const (
	// rejectQueueFull: the global admission queue is at capacity.
	rejectQueueFull RejectCode = "queue_full"
	// rejectTenantBusy: the tenant is at its concurrency cap.
	rejectTenantBusy RejectCode = "tenant_busy"
	// rejectQuota: the tenant's token bucket is empty.
	rejectQuota RejectCode = "quota"
	// RejectDraining: the server is shutting down.
	RejectDraining RejectCode = "draining"
)

// Reject is the typed load-shedding error. It carries a Retry-After hint so
// closed-loop clients can back off instead of hammering a hot server.
type Reject struct {
	Code       RejectCode
	Tenant     string
	RetryAfter time.Duration
}

func (r *Reject) Error() string {
	return fmt.Sprintf("service: rejected (%s, tenant %q): retry after %s", r.Code, r.Tenant, r.RetryAfter)
}

// AsReject unwraps err to a *Reject if it is one.
func AsReject(err error) (*Reject, bool) {
	r, ok := err.(*Reject)
	return r, ok
}

// tokenBucket is a standard rate/burst bucket; rate <= 0 disables it.
// Callers hold the owning tenant's lock.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// take refills by elapsed wall time and consumes one token. On refusal it
// returns how long until a token accrues (the Retry-After hint).
func (b *tokenBucket) take(now time.Time) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
	} else {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return false, wait
}

// tenantState is a tenant's one record: its quota bucket and in-flight
// count, and every total the tenant-labelled ftserve_* families and Stats
// read. mu guards all of it, and a reader copies the record under mu, so
// every copy has Admitted >= Completed + Failed.
type tenantState struct {
	mu       sync.Mutex
	bucket   tokenBucket
	inflight int
	cap      int // max concurrent queries; <= 0 means unlimited
	tenantRecord
}

// tenantRecord is what a tenant has counted.
type tenantRecord struct {
	TenantTotals
	rejected map[RejectCode]int64 // Rejected by reason
	latency  *metrics.Histogram   // nil until the first completion
}

// admit claims one slot, checking the concurrency cap before spending a
// token so a capped-out request does not also drain the bucket. busyHint is
// the Retry-After estimate for cap rejections (roughly one query latency).
func (t *tenantState) admit(now time.Time, busyHint time.Duration) *Reject {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cap > 0 && t.inflight >= t.cap {
		return &Reject{Code: rejectTenantBusy, Tenant: t.Tenant, RetryAfter: busyHint}
	}
	if ok, wait := t.bucket.take(now); !ok {
		return &Reject{Code: rejectQuota, Tenant: t.Tenant, RetryAfter: wait}
	}
	t.inflight++
	return nil
}

// release returns the slot claimed by admit.
func (t *tenantState) release() {
	t.mu.Lock()
	t.inflight--
	t.mu.Unlock()
}

// reject counts a refusal of one of the tenant's queries and returns it.
func (t *tenantState) reject(rej *Reject) *Reject {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rejected == nil {
		t.rejected = make(map[RejectCode]int64)
	}
	t.rejected[rej.Code]++
	t.Rejected++
	return rej
}

// admitted counts a query that passed global admission.
func (t *tenantState) admitted() {
	t.mu.Lock()
	t.Admitted++
	t.mu.Unlock()
}

// finished counts the outcome of an admitted query: a failure, or a result
// with its latency, failures, recovered partitions and wasted seconds.
func (t *tenantState) finished(resp *Response, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.Failed++
		return
	}
	t.Completed++
	t.Failures += int64(resp.Failures)
	t.Recovered += int64(resp.Recovered)
	t.WastedSeconds += resp.WastedSeconds
	if t.latency == nil {
		t.latency = metrics.NewHistogram(metrics.DefaultLatencyBuckets())
	}
	t.latency.Observe(resp.ElapsedSeconds)
}

// tenant returns (creating on first use) the state for a tenant name.
func (s *Server) tenant(name string) *tenantState {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantState{
			bucket: tokenBucket{
				rate:  s.cfg.TenantRate,
				burst: s.cfg.TenantBurst,
			},
			cap:          s.cfg.TenantConcurrency,
			tenantRecord: tenantRecord{TenantTotals: TenantTotals{Tenant: name}},
		}
		s.tenants[name] = t
	}
	return t
}

// admitGlobal claims one of MaxConcurrent execution slots. The fast path is
// a non-blocking acquire; on contention the request parks in a bounded
// waiter queue (at most QueueDepth waiters) and a full queue sheds load
// immediately rather than building unbounded backlog. Returns a release
// func on success.
func (s *Server) admitGlobal(ctx context.Context, tenant string) (func(), *Reject, error) {
	select {
	case s.slots <- struct{}{}:
		return s.releaseSlot, nil, nil
	default:
	}
	// Slow path: park in the bounded queue.
	if !s.queue.tryEnter() {
		return nil, &Reject{Code: rejectQueueFull, Tenant: tenant, RetryAfter: s.retryHint()}, nil
	}
	defer s.queue.leave()
	select {
	case s.slots <- struct{}{}:
		return s.releaseSlot, nil, nil
	case <-s.stop:
		return nil, &Reject{Code: RejectDraining, Tenant: tenant, RetryAfter: s.retryHint()}, nil
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

func (s *Server) releaseSlot() { <-s.slots }

// waitQueue counts parked admission waiters against a bound.
type waitQueue struct {
	mu    sync.Mutex
	depth int
	max   int
}

func (q *waitQueue) tryEnter() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.depth >= q.max {
		return false
	}
	q.depth++
	return true
}

func (q *waitQueue) leave() {
	q.mu.Lock()
	q.depth--
	q.mu.Unlock()
}

// Depth returns the current number of parked waiters.
func (q *waitQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}
