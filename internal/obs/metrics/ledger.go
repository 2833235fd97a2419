package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Cause classifies one source of wasted work. The vocabulary is the measured
// counterpart of the paper's cost-model terms: CauseRecompute and
// CauseRestart are the realized w(c) (runtime thrown away and re-done after a
// failure, fine-grained and coarse-grained respectively), CauseMTTRWait is
// the realized a(c)·MTTR term (time spent waiting for a failed node to come
// back), and CauseCheckpointStall is the price of materialization the model
// books as tm(o) when the async writer cannot hide it.
type Cause string

// The closed set of wasted-work causes.
const (
	// CauseRecompute is time spent re-running lost lineage partitions during
	// fine-grained recovery.
	CauseRecompute Cause = "recompute"
	// CauseRestart is time thrown away by a coarse-grained whole-query
	// restart (the aborted attempt's elapsed time).
	CauseRestart Cause = "restart"
	// CauseCheckpointStall is time execution spent blocked on the checkpoint
	// writer (flush barriers that could not be hidden).
	CauseCheckpointStall Cause = "checkpoint_stall"
	// CauseMTTRWait is time spent waiting out a node's repair window; only
	// the simulator books it, real recovery in this repo is immediate.
	CauseMTTRWait Cause = "mttr_wait"
)

// resolving reports whether an attribution with this cause settles
// outstanding failure entries. Recompute and restart windows are the acts of
// recovery; stalls and MTTR waits are side costs that resolve nothing.
func (c Cause) resolving() bool { return c == CauseRecompute || c == CauseRestart }

// maxLedgerEntries caps the per-event entry log; totals stay exact beyond it.
const maxLedgerEntries = 1 << 15

// Ledger attributes every lost second of execution to a cause: Fail entries
// record failures, Attribute entries the wasted wall time. The runtime's
// ledger is a fold over its events (obs.Exec.Observe), the simulator books
// its synthetic one directly. The pairing invariant — every failure entry is
// eventually followed by a resolving attribution — is what the ledger tests
// enforce.
//
// The zero value is ready to use and safe for concurrent use. Methods on a
// nil *Ledger are no-ops, so disabled-metrics paths pay nothing.
type Ledger struct {
	mu         sync.Mutex
	seq        int64
	entries    []LedgerEntry
	dropped    int64
	failures   int64
	unresolved int64
	seconds    map[Cause]float64
	events     map[Cause]int64
}

// LedgerEntry is one event: a failure observation or a waste attribution.
type LedgerEntry struct {
	Seq  int64  `json:"seq"`
	Kind string `json:"kind"` // "failure" or "waste"
	// Cause is set on waste entries.
	Cause Cause  `json:"cause,omitempty"`
	Op    string `json:"op"`
	Part  int    `json:"part"`
	// Seconds is the attributed wall time of waste entries.
	Seconds float64 `json:"seconds,omitempty"`
}

// Fail records an observed failure while computing (op, part).
func (l *Ledger) Fail(op string, part int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.failures++
	l.unresolved++
	l.append(LedgerEntry{Kind: "failure", Op: op, Part: part})
	l.mu.Unlock()
}

// Attribute books d of wasted wall time against cause while handling
// (op, part). Resolving causes settle all outstanding failure entries —
// recoveries are serialized in the runtime, so one recovery window answers
// every failure observed before it closed.
func (l *Ledger) Attribute(cause Cause, op string, part int, d time.Duration) {
	l.AttributeSeconds(cause, op, part, d.Seconds())
}

// AttributeSeconds is Attribute for callers on a synthetic clock (the
// simulator books simulated seconds, not wall durations).
func (l *Ledger) AttributeSeconds(cause Cause, op string, part int, sec float64) {
	if l == nil {
		return
	}
	if sec < 0 {
		sec = 0
	}
	l.mu.Lock()
	if l.seconds == nil {
		l.seconds = make(map[Cause]float64)
		l.events = make(map[Cause]int64)
	}
	l.seconds[cause] += sec
	l.events[cause]++
	if cause.resolving() {
		l.unresolved = 0
	}
	l.append(LedgerEntry{Kind: "waste", Cause: cause, Op: op, Part: part, Seconds: sec})
	l.mu.Unlock()
}

func (l *Ledger) append(e LedgerEntry) {
	l.seq++
	e.Seq = l.seq
	if len(l.entries) >= maxLedgerEntries {
		l.dropped++
		return
	}
	l.entries = append(l.entries, e)
}

// counts returns the failure entries recorded and those still unresolved,
// without copying the entry log.
func (l *Ledger) counts() (failures, unresolved int64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failures, l.unresolved
}

// Seconds returns the total booked against one cause.
func (l *Ledger) Seconds(cause Cause) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seconds[cause]
}

// Snapshot returns a plain-value copy of the ledger.
func (l *Ledger) Snapshot() LedgerSnapshot {
	if l == nil {
		return LedgerSnapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := LedgerSnapshot{
		Failures:       l.failures,
		Unresolved:     l.unresolved,
		DroppedEntries: l.dropped,
		Entries:        append([]LedgerEntry(nil), l.entries...),
	}
	for c, sec := range l.seconds {
		s.Totals = append(s.Totals, CauseTotal{Cause: c, Seconds: sec, Events: l.events[c]})
	}
	sort.Slice(s.Totals, func(i, j int) bool { return s.Totals[i].Cause < s.Totals[j].Cause })
	return s
}

// CauseTotal is the aggregate waste booked against one cause.
type CauseTotal struct {
	Cause   Cause   `json:"cause"`
	Seconds float64 `json:"seconds"`
	Events  int64   `json:"events"`
}

// LedgerSnapshot is the plain-value form of a Ledger.
type LedgerSnapshot struct {
	Failures       int64         `json:"failures"`
	Unresolved     int64         `json:"unresolved"`
	Totals         []CauseTotal  `json:"totals,omitempty"`
	Entries        []LedgerEntry `json:"entries,omitempty"`
	DroppedEntries int64         `json:"dropped_entries,omitempty"`
}

// WastedSeconds sums every cause's total.
func (s LedgerSnapshot) WastedSeconds() float64 {
	var sum float64
	for _, t := range s.Totals {
		sum += t.Seconds
	}
	return sum
}

// String renders the ledger compactly for CLI output.
func (s LedgerSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wasted work: %.6fs across %d failures", s.WastedSeconds(), s.Failures)
	for _, t := range s.Totals {
		fmt.Fprintf(&b, "\n  %-17s %12.6fs  %d events", t.Cause, t.Seconds, t.Events)
	}
	if s.Unresolved > 0 {
		fmt.Fprintf(&b, "\n  UNRESOLVED failures: %d", s.Unresolved)
	}
	return b.String()
}

// RegisterLedger exposes a ledger through a registry as the families
// ftpde_wasted_seconds_total{cause}, ftpde_wasted_events_total{cause},
// ftpde_ledger_failures_total and ftpde_ledger_unresolved.
func RegisterLedger(r *Registry, l *Ledger) {
	r.MustRegisterFunc(Desc{
		Name: "ftpde_wasted_seconds_total", Kind: KindCounter, Unit: "seconds",
		Labels: []string{"cause"},
		Help:   "Wall time lost to failures and fault-tolerance overhead, by cause.",
	}, func() []Sample {
		snap := l.Snapshot()
		out := make([]Sample, 0, len(snap.Totals))
		for _, t := range snap.Totals {
			out = append(out, Sample{LabelValues: []string{string(t.Cause)}, Value: t.Seconds})
		}
		return out
	})
	r.MustRegisterFunc(Desc{
		Name: "ftpde_wasted_events_total", Kind: KindCounter,
		Labels: []string{"cause"},
		Help:   "Number of waste attributions, by cause.",
	}, func() []Sample {
		snap := l.Snapshot()
		out := make([]Sample, 0, len(snap.Totals))
		for _, t := range snap.Totals {
			out = append(out, Sample{LabelValues: []string{string(t.Cause)}, Value: float64(t.Events)})
		}
		return out
	})
	r.MustRegisterFunc(Desc{
		Name: "ftpde_ledger_failures_total", Kind: KindCounter,
		Help: "Failure entries recorded in the wasted-work ledger.",
	}, func() []Sample {
		failures, _ := l.counts()
		return []Sample{{Value: float64(failures)}}
	})
	r.MustRegisterFunc(Desc{
		Name: "ftpde_ledger_unresolved", Kind: KindGauge,
		Help: "Failure entries not yet settled by a resolving attribution.",
	}, func() []Sample {
		_, unresolved := l.counts()
		return []Sample{{Value: float64(unresolved)}}
	})
}
