package main

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftpde/internal/core"
	"ftpde/internal/obs"
	"ftpde/internal/plan"
	"ftpde/internal/runtime"
	"ftpde/internal/service"
	"ftpde/internal/sql"
)

const serveSF = 0.002

// serveRun is serve_mixed after set-up: an in-process ftserve behind TCP and
// one client connection per CPU, which is all the load there is.
type serveRun struct {
	seed   int64
	cat    *catalog
	tstats map[string]sql.TableStats
	srv    *service.Server
	conns  []*service.Client

	mu        sync.Mutex
	refs      map[string]digest // expected reply per query text, fresh texts added by verify
	seen      []reply
	attempted int
	failed    int
}

// reply is what came back for one request, kept until verify.
type reply struct {
	text string
	got  digest
}

func setupServe(seed int64, _ string) (runner, error) {
	cat, err := generate(seed, serveSF)
	if err != nil {
		return nil, err
	}
	s := &serveRun{seed: seed, cat: cat, refs: map[string]digest{}}
	if s.tstats, err = cat.collectStats(); err != nil {
		return nil, err
	}
	if s.srv, err = service.New(service.Config{SF: serveSF, Nodes: nodes, Seed: catalogSeed(seed)}); err != nil {
		return nil, err
	}
	addr, err := s.srv.StartTCP("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < goruntime.NumCPU(); i++ {
		c, err := service.Dial(addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	// Warm-up: the repeated texts once each, which also makes the server
	// collect its table statistics before anything is timed.
	for i, pair := range repeatedTexts(seed) {
		for j, text := range pair {
			req := request("warm", 2*i+j, 0, text)
			resp, err := s.conns[0].Do(req)
			if err != nil {
				s.close()
				return nil, err
			}
			s.note(req, resp)
		}
	}
	if err := s.verify(); err != nil || s.failed > 0 {
		s.close()
		return nil, fmt.Errorf("serve_mixed warm-up: %d of %d replies wrong (%v)", s.failed, s.attempted, err)
	}
	return s, nil
}

func (s *serveRun) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// note books one reply; whether its rows are right is settled by verify.
func (s *serveRun) note(req service.Request, resp *service.Response) {
	var got digest
	if resp.Code == service.CodeOK {
		got = digestStrings(resp.Rows, resp.RowsTotal)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if resp.Code != service.CodeOK {
		s.failed++
		return
	}
	s.seen = append(s.seen, reply{req.Query, got})
}

// verify compares every reply noted so far with the staged reference for its
// text, computing the references it lacks on as many goroutines as there are
// clients. It runs after the clock stops.
func (s *serveRun) verify() error {
	var missing []string
	for _, r := range s.seen {
		if _, ok := s.refs[r.text]; !ok {
			s.refs[r.text] = digest{}
			missing = append(missing, r.text)
		}
	}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		first error
	)
	for range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(missing); i = int(next.Add(1)) - 1 {
				ref, err := servedReference(s.cat.cat, missing[i])
				s.mu.Lock()
				s.refs[missing[i]] = ref
				if err != nil && first == nil {
					first = err
				}
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, r := range s.seen {
		if s.refs[r.text] != r.got {
			s.failed++
		}
	}
	s.seen = s.seen[:0]
	return first
}

// closedLoop keeps every connection busy until the deadline: each client
// sends its next request when the previous reply arrives, and at least one.
// probe, when set, runs before each send. It returns the number of replies.
func (s *serveRun) closedLoop(reqs []service.Request, next *atomic.Int64, until time.Time, rec *recorder, probe func()) (int, error) {
	var (
		wg   sync.WaitGroup
		ops  atomic.Int64
		errs = make(chan error, len(s.conns))
	)
	for _, c := range s.conns {
		wg.Add(1)
		go func(c *service.Client) {
			defer wg.Done()
			for first := true; first || time.Now().Before(until); first = false {
				i := int(next.Add(1)) - 1
				req := reqs[i%len(reqs)]
				if probe != nil {
					probe()
				}
				var (
					resp *service.Response
					err  error
				)
				rec.timed("client.Do", 0, i, func() { resp, err = c.Do(req) })
				if err != nil {
					errs <- err
					return
				}
				s.note(req, resp)
				ops.Add(1)
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
		return int(ops.Load()), nil
	}
}

// openLoop starts session i (requests i*sessionSize and on, back to back
// over one connection) at due[i] seconds after the phase starts, whether or
// not earlier sessions have finished, over the same connections. A session
// is timed from its due time to its last reply, so waiting for a free
// connection counts; lag is how late its first request actually left. Both
// are indexed like due.
func (s *serveRun) openLoop(reqs []service.Request, due []float64) (latencyMS, lagMS []float64, err error) {
	type job struct {
		i   int
		due time.Time
	}
	var (
		wg   sync.WaitGroup
		errs = make(chan error, len(s.conns))
		jobs = make(chan job, len(due)) // one slot per session: the dispatcher never waits on a busy client
	)
	latencyMS, lagMS = make([]float64, len(due)), make([]float64, len(due))
	for _, c := range s.conns {
		wg.Add(1)
		go func(c *service.Client) {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				for _, req := range reqs[j.i*sessionSize : (j.i+1)*sessionSize] {
					resp, err := c.Do(req)
					if err != nil {
						errs <- err
						return
					}
					s.note(req, resp)
				}
				latencyMS[j.i] = time.Since(j.due).Seconds() * 1e3
				lagMS[j.i] = sent.Sub(j.due).Seconds() * 1e3
			}
		}(c)
	}
	start := time.Now()
	for i, d := range due {
		at := start.Add(time.Duration(d * float64(time.Second)))
		time.Sleep(time.Until(at))
		jobs <- job{i, at}
	}
	close(jobs)
	wg.Wait()
	select {
	case err = <-errs:
	default:
	}
	return latencyMS, lagMS, err
}

// closedShare is the part of a run the closed loop gets; the open loop, whose
// 95th percentile needs the samples, gets the rest.
const closedShare = 0.25

// measure: phase A is the closed loop and gives throughput and allocation
// in sessions (a fifth of a session per reply);
// phase B is the open loop at openRate and gives the latencies, cut into
// trials by due time.
func (s *serveRun) measure(seconds float64) (outcome, error) {
	s.attempted, s.failed = 0, 0
	closed := requestStream(s.seed, "closed", int(seconds*400)+64)
	var next atomic.Int64
	rate, err := trials(closedShare*seconds, trialSeconds, func(until time.Time) ([]float64, float64, error) {
		replies, err := s.closedLoop(closed, &next, until, nil, nil)
		return nil, float64(replies) / float64(sessionSize), err
	})
	if err != nil {
		return outcome{}, err
	}
	horizon := (1 - closedShare) * seconds
	due := arrivals(s.seed, horizon)
	latencyMS, _, err := s.openLoop(requestStream(s.seed, "open", len(due)*sessionSize), due)
	if err != nil {
		return outcome{}, err
	}
	open := make([]trial, max(1, int(horizon/trialSeconds+0.5)))
	for i, d := range due {
		t := &open[int(d/horizon*float64(len(open)))]
		t.latencyMS = append(t.latencyMS, latencyMS[i])
	}
	for i := range open {
		if len(open[i].latencyMS) == 0 {
			return outcome{}, fmt.Errorf("an open-loop trial of %.2fs had no session due", horizon/float64(len(open)))
		}
		open[i].quiet = -mean(open[i].latencyMS)
	}
	if err := s.verify(); err != nil {
		return outcome{}, err
	}
	m := rateMetrics(rate)
	for k, v := range latencyMetrics(open) {
		m[k] = v
	}
	return outcome{attempted: s.attempted, failed: s.failed, metrics: m}, nil
}

// trace spends its time on five passes: the closed loop untraced and traced
// (their throughput difference is the tracing overhead), a sequential pass
// that sends each request over TCP, then straight to Submit, then through
// the planning and execution calls Submit makes, a pass of paired bare and
// instrumented executions for the obs layer, and a short open loop for the
// load generator's own lag.
func (s *serveRun) trace(seconds float64, rec *recorder) (outcome, error) {
	s.attempted, s.failed = 0, 0
	reqs := requestStream(s.seed, "trace", int(seconds*400)+64)
	var next atomic.Int64
	phase := func(share float64, rec *recorder, probe func()) (float64, error) {
		start := time.Now()
		ops, err := s.closedLoop(reqs, &next, deadline(share*seconds), rec, probe)
		return float64(ops) / time.Since(start).Seconds(), err
	}
	untraced, err := phase(0.15, nil, nil)
	if err != nil {
		return outcome{}, err
	}
	var (
		pmu                      sync.Mutex
		utilSum, utilN, maxDepth float64
	)
	traced, err := phase(0.15, rec, func() {
		u, d := s.srv.Pool().Utilization(), float64(s.srv.QueueDepth())
		pmu.Lock()
		utilSum, utilN, maxDepth = utilSum+u, utilN+1, max(maxDepth, d)
		pmu.Unlock()
	})
	if err != nil {
		return outcome{}, err
	}

	var submitMS, wireMS, admitMS, selfMS []float64
	for n, until := 0, deadline(0.4*seconds); n == 0 || time.Now().Before(until); n++ {
		op := int(next.Add(1)) - 1
		req := reqs[op%len(reqs)]
		var (
			resp *service.Response
			err  error
		)
		rtt := rec.timed("client.Do", 0, op, func() { resp, err = s.conns[0].Do(req) })
		if err != nil {
			return outcome{}, err
		}
		s.note(req, resp)
		submit := rec.timed("service.Submit", 0, op, func() { resp, err = s.srv.Submit(context.Background(), req) })
		if err != nil {
			return outcome{}, err
		}
		s.note(req, resp)
		replayed, err := s.replay(rec, op, req.Query)
		if err != nil {
			return outcome{}, err
		}
		submitMS = append(submitMS, submit.Seconds()*1e3)
		wireMS = append(wireMS, (rtt-submit).Seconds()*1e3)
		admitMS = append(admitMS, submit.Seconds()*1e3-resp.ElapsedSeconds*1e3)
		selfMS = append(selfMS, resp.ElapsedSeconds*1e3-replayed.Seconds()*1e3)
	}

	m, err := s.obsProbe(deadline(0.1 * seconds))
	if err != nil {
		return outcome{}, err
	}
	due := arrivals(s.seed, 0.2*seconds)
	_, lagMS, err := s.openLoop(requestStream(s.seed, "open", len(due)*sessionSize), due)
	if err != nil {
		return outcome{}, err
	}
	if err := s.verify(); err != nil {
		return outcome{}, err
	}

	var completed, rejected int64
	for _, t := range s.srv.Stats().Tenants {
		completed += t.Completed
		rejected += t.Rejected
	}
	self := rec.selfSeconds()
	m["service.submit_p50_ms"] = medianOf(submitMS, "ms")
	m["service.wire_overhead_p50_ms"] = medianOf(wireMS, "ms")
	m["service.admission_wait_p50_ms"] = medianOf(admitMS, "ms")
	m["service.self_p50_ms"] = medianOf(selfMS, "ms")
	m["service.pool_utilization_mean"] = exact(utilSum/max(utilN, 1), "ratio")
	m["service.queue_depth_max"] = exact(maxDepth, "count")
	m["service.completed"] = exact(float64(completed), "count")
	m["service.rejected"] = exact(float64(rejected), "count")
	m["sql.parse_us"] = selfMedian(self, "sql.Parse", 1e6, "us")
	m["sql.costplan_us"] = selfMedian(self, "sql.CostPlan", 1e6, "us")
	m["sql.compile_us"] = selfMedian(self, "sql.Compile", 1e6, "us")
	m["sql.auditplan_us"] = selfMedian(self, "sql.BuildAuditPlan", 1e6, "us")
	m["core.optimize_tpch_us"] = selfMedian(self, "core.Optimize", 1e6, "us")
	m["bench.loadgen_lag_p95_ms"] = quantileOf(lagMS, 0.95, "ms")
	m["bench.trace_overhead_frac"] = traceOverhead(untraced, traced)
	s.cat.merge(m)
	return outcome{attempted: s.attempted, failed: s.failed, metrics: m}, nil
}

// replay sends text through the exported calls service.Submit makes for it,
// one span each, and returns the time of the three that make up a request:
// parse, audit plan, execute. CostPlan, Optimize and Compile are the steps
// BuildAuditPlan is made of; they run once more on their own so that each
// layer has its own figure.
func (s *serveRun) replay(rec *recorder, op int, text string) (time.Duration, error) {
	var (
		stmt  *sql.SelectStmt
		cp    *plan.Plan
		audit *sql.AuditPlan
		err   error
	)
	root := rec.begin("replay", 0, op)
	defer rec.end(root)
	total := rec.timed("sql.Parse", root, op, func() { stmt, err = sql.Parse(text) })
	if err != nil {
		return 0, err
	}
	rec.timed("sql.CostPlan", root, op, func() { cp, err = sql.CostPlan(stmt, s.cat.cat, s.tstats, planParams) })
	if err != nil {
		return 0, err
	}
	rec.timed("core.Optimize", root, op, func() { _, err = core.Optimize(cp, core.Options{Model: planModel, MemoizePaths: true}) })
	if err != nil {
		return 0, err
	}
	rec.timed("sql.Compile", root, op, func() { _, err = sql.Compile(stmt, s.cat.cat) })
	if err != nil {
		return 0, err
	}
	total += rec.timed("sql.BuildAuditPlan", root, op, func() {
		audit, err = sql.BuildAuditPlan(stmt, s.cat.cat, s.tstats, planParams, planModel)
	})
	if err != nil {
		return 0, err
	}
	ex, err := execute(rec, root, op, runtime.Config{Nodes: nodes}, audit.Phys.Root)
	return total + ex.wall, err
}

// obsProbe prices the telemetry service.execute attaches to every query:
// template Q1 bare against Q1 with a tracer, a progress tracker and a
// metrics set, as interleaved pairs whose order alternates; the overhead is
// the median of the pair ratios.
func (s *serveRun) obsProbe(until time.Time) (map[string]measured, error) {
	stmt, err := sql.Parse(service.TPCHQueries()[0].Text)
	if err != nil {
		return nil, err
	}
	audit, err := sql.BuildAuditPlan(stmt, s.cat.cat, s.tstats, planParams, planModel)
	if err != nil {
		return nil, err
	}
	root := audit.Phys.Root
	registry := obs.NewProgressRegistry(32)
	drift := obs.NewDriftDetector(obs.DriftConfig{Nodes: nodes, ModelMTBF: planModel.MTBF, ModelMTTR: planModel.MTTR})
	var ratios, driftUS, spansPerOp []float64
	var dropped int64
	for pair := 0; pair < 3 || time.Now().Before(until); pair++ {
		var bare, instrumented time.Duration
		for arm := 0; arm < 2; arm++ {
			if (arm+pair)%2 == 0 {
				ex, err := execute(nil, 0, 0, runtime.Config{Nodes: nodes}, root)
				if err != nil {
					return nil, err
				}
				bare = ex.wall
				continue
			}
			tracer := obs.NewTracer(1 << 12)
			prog := registry.Begin("t0", root.Name())
			prog.SetPrediction(audit.Pred.DominantRuntime, obs.StagePredictions(audit.Pred))
			ex, err := execute(nil, 0, 0, runtime.Config{Nodes: nodes, Metrics: &runtime.Metrics{}, Tracer: tracer, Progress: prog}, root)
			if err != nil {
				return nil, err
			}
			spans := tracer.Snapshot()
			registry.End(prog, nil)
			start := time.Now()
			drift.ObserveQuery(audit.Pred, spans)
			driftUS = append(driftUS, time.Since(start).Seconds()*1e6)
			instrumented = ex.wall
			spansPerOp = append(spansPerOp, float64(len(spans)))
			dropped += tracer.Dropped()
		}
		ratios = append(ratios, instrumented.Seconds()/bare.Seconds())
	}
	overhead := medianOf(ratios, "ratio")
	overhead.Value, overhead.Q1, overhead.Q3 = overhead.Value-1, overhead.Q1-1, overhead.Q3-1
	return map[string]measured{
		"obs.overhead_frac":    overhead,
		"obs.spans_per_op":     medianOf(spansPerOp, "count"),
		"obs.spans_dropped":    exact(float64(dropped), "count"),
		"obs.drift_observe_us": medianOf(driftUS, "us"),
	}, nil
}
