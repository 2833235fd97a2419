// Package prof is the continuous profiling layer: it tags every unit of work
// in the runtime with pprof labels, samples CPU profiles in bounded windows
// into a crash-safe on-disk ring, decodes the gzipped profile.proto with a
// stdlib-only varint decoder, and joins samples back to queries, tenants, and
// operators by label. The join produces per-operator CPU seconds and alloc
// bytes — the measured tp(o) the drift detector uses to correct the cost
// model's compute term from ground truth instead of inferring it from wall
// clock.
//
// Labels are goroutine-local: a worker goroutine spawned by a labeled parent
// does NOT inherit the parent's label set. Every goroutine handoff in the
// pipelined runtime therefore re-applies labels from the task context via Do,
// which merges the context's inherited label map (query, tenant) with the
// hop's own labels (stage, op, attempt).
package prof

import (
	"context"
	rpprof "runtime/pprof"
	"strconv"
	"sync/atomic"
)

// Label keys of the profiling vocabulary. Every sampled stack in a healthy
// run carries at least query+op (or query+stage for runtime scaffolding).
const (
	LabelQuery   = "query"   // per-query id (progress id, or "1" for the CLI)
	LabelTenant  = "tenant"  // submitting tenant ("cli" outside the service)
	LabelStage   = "stage"   // collapsed stage name (pipelined runtime)
	LabelOp      = "op"      // operator name, matching span and audit names
	LabelAttempt = "attempt" // per-(operator, partition) attempt number
)

// Labels is one hop's label set; empty fields are omitted from the pprof
// label map so inherited context labels (query, tenant) survive the merge.
type Labels struct {
	Query   string
	Tenant  string
	Stage   string
	Op      string
	Attempt string
}

// enabled gates every labeling call site: when no sampler is running, Do and
// Context degrade to a single atomic load so the hot path pays nothing.
var enabled atomic.Bool

// Enabled reports whether a sampler has switched labeling on.
func Enabled() bool { return enabled.Load() }

// SetEnabled flips the global labeling gate. Samplers call it on Start/Stop;
// tests may call it directly to exercise label plumbing without a sampler.
func SetEnabled(on bool) { enabled.Store(on) }

// AttemptLabel renders an attempt number for Labels.Attempt. It returns ""
// (label omitted) while profiling is off, so call sites never pay for the
// int-to-string conversion on the unprofiled hot path.
func AttemptLabel(n int) string {
	if !enabled.Load() {
		return ""
	}
	return strconv.Itoa(n)
}

// pairs flattens the non-empty labels into the alternating key/value form
// runtime/pprof consumes.
func (ls Labels) pairs() []string {
	kv := make([]string, 0, 10)
	if ls.Query != "" {
		kv = append(kv, LabelQuery, ls.Query)
	}
	if ls.Tenant != "" {
		kv = append(kv, LabelTenant, ls.Tenant)
	}
	if ls.Stage != "" {
		kv = append(kv, LabelStage, ls.Stage)
	}
	if ls.Op != "" {
		kv = append(kv, LabelOp, ls.Op)
	}
	if ls.Attempt != "" {
		kv = append(kv, LabelAttempt, ls.Attempt)
	}
	return kv
}

// Context returns ctx with ls merged into its pprof label map, so goroutines
// that later call Do with this context inherit the query-level labels. It does
// not change the calling goroutine's labels.
func Context(ctx context.Context, ls Labels) context.Context {
	if !enabled.Load() {
		return ctx
	}
	kv := ls.pairs()
	if len(kv) == 0 {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return rpprof.WithLabels(ctx, rpprof.Labels(kv...))
}

// Apply sets the calling goroutine's labels to the set ctx carries. A loop
// that works for several operators in turn builds each one's set once with
// Context and switches between them with Apply, which allocates nothing; the
// caller restores its own set by applying the context it started from. When
// profiling is off it is a single atomic load.
func Apply(ctx context.Context) {
	if enabled.Load() {
		rpprof.SetGoroutineLabels(ctx)
	}
}

// Do runs fn with ls merged into ctx's label map and applied to the current
// goroutine for the duration of the call (restoring the previous labels
// after). When profiling is off it is a plain call.
func Do(ctx context.Context, ls Labels, fn func(context.Context)) {
	if !enabled.Load() {
		fn(ctx)
		return
	}
	kv := ls.pairs()
	if len(kv) == 0 {
		fn(ctx)
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rpprof.Do(ctx, rpprof.Labels(kv...), fn)
}
