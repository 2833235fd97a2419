package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/stats"
	"ftpde/internal/stats/calibrate"
)

// Drift terms: the four cost-model inputs the online detector tracks. They
// label the ftpde_cost_drift gauge families and key DriftDetector lookups.
const (
	DriftTR   = "tr"   // per-operator runtime correction factor
	DriftTM   = "tm"   // per-operator materialization correction factor
	DriftMTBF = "mtbf" // per-node mean time between failures
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
	// Window bounds the rolling sample rings (default 64).
	Window int
	// Threshold is the |relative error| above which a term counts as
	// drifting for one query (default 0.5: model off by more than 50%).
	Threshold float64
	// K is how many consecutive contributing queries must exceed Threshold
	// before the term is flagged (default 3).
	K int
	// Alpha is the EWMA smoothing factor for the tr/tm correction factors
	// (default 0.25).
	Alpha float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.25
	}
	return c
}

// sampleRing is a bounded FIFO of float64 samples.
type sampleRing struct {
	buf  []float64
	next int
	full bool
}

func newSampleRing(n int) *sampleRing { return &sampleRing{buf: make([]float64, n)} }

func (r *sampleRing) push(v float64) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

func (r *sampleRing) samples() []float64 {
	if r.full {
		out := make([]float64, 0, len(r.buf))
		out = append(out, r.buf[r.next:]...)
		return append(out, r.buf[:r.next]...)
	}
	return append([]float64(nil), r.buf[:r.next]...)
}

// termState tracks one cost-model term's drift.
type termState struct {
	model    float64 // the model's assumed value (factor terms assume 1)
	estimate float64 // rolling estimate
	relErr   float64 // (model - estimate) / estimate, audit convention
	samples  int     // total samples ever ingested
	consec   int     // consecutive contributing queries over threshold
	flagged  bool
}

// DriftDetector is the online half of the calibration loop: it ingests each
// finished query's span slice (KindFailure arrival times, KindRecovery
// durations, task/checkpoint walls joined against the plan-time prediction)
// and maintains rolling estimates of MTBF, MTTR and the tr/tm correction
// factors using the same math as the offline calibrator
// (calibrate.FitMTBF, slope-through-origin factors smoothed by EWMA).
//
// A term is *flagged* once its |relative error| against the model exceeds
// Threshold for K consecutive contributing queries — the signal that planning
// should switch to CorrectedModel/CorrectedParams. All methods are safe for
// concurrent use and tolerate a nil receiver.
//
// Determinism: the detector reads only span timestamps, never the wall
// clock, so replaying a recorded span log reproduces its state exactly.
type DriftDetector struct {
	mu  sync.Mutex
	cfg DriftConfig

	interarrivals *sampleRing
	repairs       *sampleRing
	lastFailure   time.Time

	trEWMA, tmEWMA float64 // observed/predicted correction factors

	terms   map[string]*termState
	queries int
}

// NewDriftDetector returns a detector for the given configuration.
func NewDriftDetector(cfg DriftConfig) *DriftDetector {
	cfg = cfg.withDefaults()
	return &DriftDetector{
		cfg:           cfg,
		interarrivals: newSampleRing(cfg.Window),
		repairs:       newSampleRing(cfg.Window),
		trEWMA:        1,
		tmEWMA:        1,
		terms: map[string]*termState{
			DriftTR:   {model: 1, estimate: 1},
			DriftTM:   {model: 1, estimate: 1},
			DriftMTBF: {model: cfg.ModelMTBF},
			DriftMTTR: {model: cfg.ModelMTTR},
		},
	}
}

// ObserveQuery ingests one finished query: the plan-time prediction and the
// query's span slice. Failure spans extend the rolling inter-arrival window
// (the detector remembers the previous failure's timestamp across queries),
// recovery spans the repair window, and task/checkpoint spans update the
// EWMA tr/tm factors through the same prediction join the audit uses.
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
		if !d.lastFailure.IsZero() {
			if dt := ts.Sub(d.lastFailure).Seconds(); dt >= 0 {
				d.interarrivals.push(dt)
				nMTBF++
			}
		}
		d.lastFailure = ts
	}

	// tr/tm: pair predictions with observations exactly as the offline
	// calibrator does — failure-free task wall against tr(c), checkpoint
	// write wall against tm(c) — then fold each query's slope into the EWMA.
	if len(pred.Ops) > 0 {
		rep := BuildAudit(pred, spans, 0)
		var trPred, trObs, tmPred, tmObs []float64
		for _, row := range rep.Rows {
			obsTR := (row.Obs.TaskWall - row.Obs.WastedWall).Seconds()
			if row.Pred.TR > 0 && obsTR > 0 {
				trPred = append(trPred, row.Pred.TR)
				trObs = append(trObs, obsTR)
			}
			obsTM := row.Obs.CheckpointWall.Seconds()
			if row.Pred.TM > 0 && obsTM > 0 {
				tmPred = append(tmPred, row.Pred.TM)
				tmObs = append(tmObs, obsTM)
			}
		}
		if f, ok := querySlope(trPred, trObs); ok {
			d.trEWMA += d.cfg.Alpha * (f - d.trEWMA)
			nTR = len(trPred)
		}
		if f, ok := querySlope(tmPred, tmObs); ok {
			d.tmEWMA += d.cfg.Alpha * (f - d.tmEWMA)
			nTM = len(tmPred)
		}
	}

	d.updateTerm(DriftMTBF, nMTBF, d.mtbfLocked())
	d.updateTerm(DriftMTTR, nMTTR, d.mttrLocked())
	d.updateTerm(DriftTR, nTR, d.trEWMA)
	d.updateTerm(DriftTM, nTM, d.tmEWMA)
}

// querySlope is the calibrator's least-squares slope through the origin for
// one query's pairs; ok is false when the query carried no signal.
func querySlope(pred, obs []float64) (float64, bool) {
	var num, den float64
	for i := range pred {
		num += pred[i] * obs[i]
		den += pred[i] * pred[i]
	}
	if den <= 0 || num <= 0 {
		return 1, false
	}
	return num / den, true
}

func (d *DriftDetector) mtbfLocked() float64 {
	return calibrate.FitMTBF(d.interarrivals.samples(), d.cfg.Nodes).PerNode
}

func (d *DriftDetector) mttrLocked() float64 {
	s := d.repairs.samples()
	if len(s) == 0 {
		return 0
	}
	var total float64
	for _, v := range s {
		total += v
	}
	return total / float64(len(s))
}

// updateTerm folds one query's contribution into a term: queries that carried
// no samples for the term leave its consecutive-over-threshold streak alone.
func (d *DriftDetector) updateTerm(term string, newSamples int, estimate float64) {
	st := d.terms[term]
	if newSamples == 0 {
		return
	}
	st.samples += newSamples
	st.estimate = estimate
	if estimate > 0 {
		st.relErr = (st.model - estimate) / estimate
	} else {
		st.relErr = 0
	}
	if abs(st.relErr) > d.cfg.Threshold {
		st.consec++
	} else {
		st.consec = 0
	}
	st.flagged = st.consec >= d.cfg.K
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Flagged reports whether the term has exceeded the drift threshold for K
// consecutive contributing queries.
func (d *DriftDetector) Flagged(term string) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.terms[term]
	return ok && st.flagged
}

// MTBF returns the rolling per-node MTBF estimate in seconds (0 until the
// window has at least one inter-arrival).
func (d *DriftDetector) MTBF() float64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mtbfLocked()
}

// MTTR returns the rolling mean repair duration in seconds.
func (d *DriftDetector) MTTR() float64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mttrLocked()
}

// CorrectedModel returns base with every *flagged* failure term replaced by
// its rolling estimate — the online analogue of calibrate.Estimator.Model,
// but conservative: un-flagged terms keep the operator-supplied values.
func (d *DriftDetector) CorrectedModel(base cost.Model) cost.Model {
	if d == nil {
		return base
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := base
	if st := d.terms[DriftMTBF]; st.flagged && st.estimate > 0 {
		out.MTBF = st.estimate
	}
	if st := d.terms[DriftMTTR]; st.flagged && st.estimate > 0 {
		out.MTTR = st.estimate
	}
	return out
}

// CorrectedParams returns base with the per-row constants scaled by flagged
// correction factors (the online analogue of Estimator.Params).
func (d *DriftDetector) CorrectedParams(base stats.CostParams) stats.CostParams {
	if d == nil {
		return base
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := base
	if st := d.terms[DriftTR]; st.flagged && st.estimate > 0 {
		out.CPUPerRow *= st.estimate
	}
	if st := d.terms[DriftTM]; st.flagged && st.estimate > 0 {
		out.WritePerRow *= st.estimate
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
}

// Snapshot captures the detector's current state.
func (d *DriftDetector) Snapshot() DriftSnapshot {
	if d == nil {
		return DriftSnapshot{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := DriftSnapshot{Queries: d.queries}
	for term, st := range d.terms {
		snap.Terms = append(snap.Terms, TermDrift{
			Term: term, Model: st.model, Estimate: st.estimate,
			RelErr: st.relErr, Samples: st.samples,
			Consecutive: st.consec, Flagged: st.flagged,
		})
	}
	sort.Slice(snap.Terms, func(i, j int) bool { return snap.Terms[i].Term < snap.Terms[j].Term })
	return snap
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
	return b.String()
}

// RegisterDriftMetrics exposes the detector as gauge families:
// ftpde_cost_drift{term} (signed relative error of the model against the
// rolling estimate) and ftpde_cost_drift_flagged{term} (1 after the error has
// exceeded the threshold for K consecutive queries). Idempotent like
// RegisterTraceMetrics.
func RegisterDriftMetrics(reg *metrics.Registry, d *DriftDetector) {
	collect := func(pick func(*termState) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			if d == nil {
				return nil
			}
			d.mu.Lock()
			defer d.mu.Unlock()
			terms := make([]string, 0, len(d.terms))
			for t := range d.terms {
				terms = append(terms, t)
			}
			sort.Strings(terms)
			out := make([]metrics.Sample, 0, len(terms))
			for _, t := range terms {
				out = append(out, metrics.Sample{
					LabelValues: []string{t},
					Value:       pick(d.terms[t]),
				})
			}
			return out
		}
	}
	_ = reg.RegisterFunc(metrics.Desc{
		Name: "ftpde_cost_drift", Kind: metrics.KindGauge, Labels: []string{"term"},
		Help: "Signed relative error of the cost model's term against the rolling online estimate.",
	}, collect(func(st *termState) float64 { return st.relErr }))
	_ = reg.RegisterFunc(metrics.Desc{
		Name: "ftpde_cost_drift_flagged", Kind: metrics.KindGauge, Labels: []string{"term"},
		Help: "1 when the term's drift has exceeded the threshold for K consecutive queries.",
	}, collect(func(st *termState) float64 {
		if st.flagged {
			return 1
		}
		return 0
	}))
}
