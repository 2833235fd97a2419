package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/stats"
)

// Drift terms: the four cost-model inputs the online detector tracks. They
// label the ftpde_cost_drift gauge families and key DriftSnapshot.Term.
const (
	DriftTR   = "tr"   // per-operator runtime correction factor
	DriftTM   = "tm"   // per-operator materialization correction factor
	driftMTBF = "mtbf" // per-node mean time between failures
	DriftMTTR = "mttr" // mean time to repair
)

// DriftConfig parameterizes a DriftDetector.
type DriftConfig struct {
	// Nodes is the cluster size (per-node MTBF = cluster inter-arrival mean
	// × nodes, by Poisson superposition).
	Nodes int
	// ModelMTBF / ModelMTTR are the cost model's assumed values the rolling
	// estimates are compared against.
	ModelMTBF float64
	ModelMTTR float64
	// Window bounds each rolling sample ring (default 64). A window that
	// holds every sample fed makes the fit the offline one.
	Window int
}

const (
	// driftThreshold is the |relative error| above which a term counts as
	// drifting for one query: the model off by more than 50%.
	driftThreshold = 0.5
	// driftK is how many consecutive contributing queries must exceed
	// driftThreshold before the term is flagged.
	driftK = 3
)

// ring is a FIFO of at most max samples that overwrites the oldest once
// full. It grows by appending, so a window sized to cover every sample
// costs only the samples fed. Fits read buf in storage order.
type ring[T any] struct {
	buf  []T
	next int // the slot the next push overwrites once buf is full
	max  int
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.max
}

// fitPair is one collapsed operator's predicted and observed seconds.
type fitPair struct{ pred, obs float64 }

// slope is the least-squares slope through the origin of observed against
// predicted (Σ pred·obs / Σ pred²): the multiplier that makes the model's
// per-operator forecasts best fit what execution measured. Without a pair
// it is 1.
func slope(pairs []fitPair) float64 {
	var num, den float64
	for _, p := range pairs {
		num += p.pred * p.obs
		den += p.pred * p.pred
	}
	if den <= 0 || num <= 0 {
		return 1
	}
	return num / den
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var total float64
	for _, v := range samples {
		total += v
	}
	return total / float64(len(samples))
}

// The detector keeps its terms in this order, sorted by name, which is the
// order snapshots and metrics show them in.
const (
	termMTBF = iota
	termMTTR
	termTM
	termTR
)

// DriftDetector is the one estimator of the cost model's inputs. It ingests
// each finished query's span slice (KindFailure arrival times, KindRecovery
// durations, task/checkpoint walls joined against the plan-time prediction)
// and fits, over rings bounded by Window: MTBF by exponential MLE
// (stats.FitMTBF), MTTR as the mean repair, and tr/tm correction factors as
// least-squares slopes through the origin of the (predicted, observed)
// pairs. ftserve runs it online; ftsql -calibrate runs it with a window that
// covers every run.
//
// A term is *flagged* once its |relative error| against the model exceeds
// driftThreshold for driftK consecutive contributing queries — the signal
// that planning should switch to CorrectedModel/CorrectedParams. All methods
// are safe for concurrent use and tolerate a nil receiver.
//
// Determinism: the detector reads only span timestamps, never the wall
// clock, so replaying a recorded span log reproduces its state exactly.
type DriftDetector struct {
	mu  sync.Mutex
	cfg DriftConfig

	interarrivals, repairs ring[float64] // seconds
	tr, tm                 ring[fitPair]
	lastFailure            time.Time

	terms   [4]TermDrift
	queries int
}

// NewDriftDetector returns a detector for the given configuration.
func NewDriftDetector(cfg DriftConfig) *DriftDetector {
	cfg.Nodes = max(cfg.Nodes, 1)
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	return &DriftDetector{
		cfg:           cfg,
		interarrivals: ring[float64]{max: cfg.Window},
		repairs:       ring[float64]{max: cfg.Window},
		tr:            ring[fitPair]{max: cfg.Window},
		tm:            ring[fitPair]{max: cfg.Window},
		terms: [...]TermDrift{
			termMTBF: {Term: driftMTBF, Model: cfg.ModelMTBF},
			termMTTR: {Term: DriftMTTR, Model: cfg.ModelMTTR},
			termTM:   {Term: DriftTM, Model: 1, Estimate: 1},
			termTR:   {Term: DriftTR, Model: 1, Estimate: 1},
		},
	}
}

// ObserveQuery ingests one finished query: the plan-time prediction and the
// query's span slice. Failure spans extend the rolling inter-arrival window
// (the detector remembers the latest failure's timestamp across queries),
// recovery spans the repair window, and task/checkpoint spans the tr/tm
// pairs through the same prediction join the audit uses.
func (d *DriftDetector) ObserveQuery(pred Prediction, spans []Span) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queries++

	var failures []time.Time
	var nMTBF, nMTTR, nTR, nTM int
	for _, sp := range spans {
		switch sp.Kind {
		case KindFailure:
			failures = append(failures, sp.Start)
		case KindRecovery:
			if s := sp.Duration().Seconds(); s >= 0 {
				d.repairs.push(s)
				nMTTR++
			}
		}
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i].Before(failures[j]) })
	for _, ts := range failures {
		switch {
		case d.lastFailure.IsZero():
		case ts.Before(d.lastFailure):
			// Concurrent queries finish out of failure order: this
			// failure lies inside a gap already counted, so it is dropped.
			continue
		default:
			d.interarrivals.push(ts.Sub(d.lastFailure).Seconds())
			nMTBF++
		}
		d.lastFailure = ts
	}

	// tr is fitted against failure-free work (task wall minus the attempts
	// a failure destroyed), tm against the checkpoint writes' wall.
	if len(pred.Ops) > 0 {
		for _, row := range BuildAudit(pred, spans, 0).Rows {
			if p, o := row.Pred.TR, (row.Obs.TaskWall - row.Obs.WastedWall).Seconds(); p > 0 && o > 0 {
				d.tr.push(fitPair{p, o})
				nTR++
			}
			if p, o := row.Pred.TM, row.Obs.CheckpointWall.Seconds(); p > 0 && o > 0 {
				d.tm.push(fitPair{p, o})
				nTM++
			}
		}
	}

	d.updateTerm(termMTBF, nMTBF, d.mtbfLocked())
	d.updateTerm(termMTTR, nMTTR, mean(d.repairs.buf))
	d.updateTerm(termTR, nTR, slope(d.tr.buf))
	d.updateTerm(termTM, nTM, slope(d.tm.buf))
}

// ObserveArrivals ingests a failure log: absolute arrival times in seconds,
// in any order. Its consecutive gaps join the inter-arrival window, and it
// counts as one contribution to the mtbf term's streak. The log need not
// share the spans' clock, so it leaves the last failure ObserveQuery
// measures from alone.
func (d *DriftDetector) ObserveArrivals(times []float64) {
	if d == nil || len(times) < 2 {
		return
	}
	ts := append([]float64(nil), times...)
	sort.Float64s(ts)
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 1; i < len(ts); i++ {
		d.interarrivals.push(ts[i] - ts[i-1])
	}
	d.updateTerm(termMTBF, len(ts)-1, d.mtbfLocked())
}

func (d *DriftDetector) mtbfLocked() float64 {
	return stats.FitMTBF(d.interarrivals.buf, d.cfg.Nodes).PerNode
}

// updateTerm folds one query's contribution into a term: queries that carried
// no samples for the term leave its consecutive-over-threshold streak alone.
func (d *DriftDetector) updateTerm(term, newSamples int, estimate float64) {
	st := &d.terms[term]
	if newSamples == 0 {
		return
	}
	st.Samples += newSamples
	st.Estimate = estimate
	if estimate > 0 {
		st.RelErr = (st.Model - estimate) / estimate
	} else {
		st.RelErr = 0
	}
	if math.Abs(st.RelErr) > driftThreshold {
		st.Consecutive++
	} else {
		st.Consecutive = 0
	}
	st.Flagged = st.Consecutive >= driftK
}

// CorrectedModel returns base with every *flagged* failure term replaced by
// its rolling estimate. Conservative: un-flagged terms keep the
// operator-supplied values.
func (d *DriftDetector) CorrectedModel(base cost.Model) cost.Model {
	if d == nil {
		return base
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := base
	if st := d.terms[termMTBF]; st.Flagged && st.Estimate > 0 {
		out.MTBF = st.Estimate
	}
	if st := d.terms[termMTTR]; st.Flagged && st.Estimate > 0 {
		out.MTTR = st.Estimate
	}
	return out
}

// CorrectedParams returns base with the per-row constants scaled by flagged
// correction factors.
func (d *DriftDetector) CorrectedParams(base stats.CostParams) stats.CostParams {
	if d == nil {
		return base
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := base
	if st := d.terms[termTR]; st.Flagged && st.Estimate > 0 {
		out.CPUPerRow *= st.Estimate
	}
	if st := d.terms[termTM]; st.Flagged && st.Estimate > 0 {
		out.WritePerRow *= st.Estimate
	}
	return out
}

// TermDrift is one term's state in a DriftSnapshot.
type TermDrift struct {
	Term        string  `json:"term"`
	Model       float64 `json:"model"`
	Estimate    float64 `json:"estimate"`
	RelErr      float64 `json:"rel_err"`
	Samples     int     `json:"samples"`
	Consecutive int     `json:"consecutive"`
	Flagged     bool    `json:"flagged"`
}

// DriftSnapshot is the detector's full state, term-sorted for determinism.
type DriftSnapshot struct {
	Queries int         `json:"queries"`
	Terms   []TermDrift `json:"terms"`
	// MTBF is the fit over the inter-arrival window with its 95% interval.
	MTBF stats.MTBFEstimate `json:"mtbf_fit"`
}

// Term returns the named term's state (zero when the snapshot lacks it).
func (s DriftSnapshot) Term(name string) TermDrift {
	for _, t := range s.Terms {
		if t.Term == name {
			return t
		}
	}
	return TermDrift{}
}

// Snapshot captures the detector's current state.
func (d *DriftDetector) Snapshot() DriftSnapshot {
	if d == nil {
		return DriftSnapshot{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return DriftSnapshot{
		Queries: d.queries,
		Terms:   append([]TermDrift(nil), d.terms[:]...),
		MTBF:    stats.FitMTBF(d.interarrivals.buf, d.cfg.Nodes).WithInterval(),
	}
}

// String renders the drift state as a small table for CLI/forensics output.
func (s DriftSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost-model drift after %d queries:\n", s.Queries)
	fmt.Fprintf(&b, "%-6s %12s %12s %9s %8s %7s %7s\n",
		"term", "model", "estimate", "relerr", "samples", "consec", "flagged")
	for _, t := range s.Terms {
		fmt.Fprintf(&b, "%-6s %12.4g %12.4g %+8.1f%% %8d %7d %7v\n",
			t.Term, t.Model, t.Estimate, t.RelErr*100, t.Samples, t.Consecutive, t.Flagged)
	}
	if s.MTBF.Valid() {
		fmt.Fprintf(&b, "MTBF per node: %s\n", s.MTBF)
	}
	return b.String()
}

// RegisterDriftMetrics exposes the detector as gauge families:
// ftpde_cost_drift{term} (signed relative error of the model against the
// rolling estimate) and ftpde_cost_drift_flagged{term} (1 after the error has
// exceeded the threshold for K consecutive queries). Idempotent like
// RegisterTraceMetrics.
func RegisterDriftMetrics(reg *metrics.Registry, d *DriftDetector) {
	collect := func(pick func(TermDrift) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			if d == nil {
				return nil
			}
			d.mu.Lock()
			defer d.mu.Unlock()
			out := make([]metrics.Sample, 0, len(d.terms))
			for _, t := range d.terms {
				out = append(out, metrics.Sample{LabelValues: []string{t.Term}, Value: pick(t)})
			}
			return out
		}
	}
	_ = reg.RegisterFunc(metrics.Desc{
		Name: "ftpde_cost_drift", Kind: metrics.KindGauge, Labels: []string{"term"},
		Help: "Signed relative error of the cost model's term against the rolling online estimate.",
	}, collect(func(t TermDrift) float64 { return t.RelErr }))
	_ = reg.RegisterFunc(metrics.Desc{
		Name: "ftpde_cost_drift_flagged", Kind: metrics.KindGauge, Labels: []string{"term"},
		Help: "1 when the term's drift has exceeded the threshold for K consecutive queries.",
	}, collect(func(t TermDrift) float64 {
		if t.Flagged {
			return 1
		}
		return 0
	}))
}
