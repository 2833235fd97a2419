package runtime

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/schemes"
)

// The differential property: for a random operator DAG with a random
// materialization configuration, the runtime returns exactly the oracle's
// rows — clean and under a schedule of one or two scripted kills, with
// fine-grained and coarse recovery, at two batch sizes — and both report the
// same Failures. A second kill is, half the time, attempt 1 of the first one's
// (operator, partition): it kills the recovery itself. Everything derives from
// the seed, so `-run 'TestDifferentialOracle/seed=N'` replays a failure.

// dagGen draws operator DAGs over two small base tables. Generated
// expressions never fail (no division, comparisons stay within a value
// kind), so any error or row difference is an executor disagreement.
type dagGen struct {
	r      *rand.Rand
	nodes  int
	tables []*engine.Table
	named  int // operators named so far
}

var dagStrings = []string{"", "ash", "birch", "cedar"}

func newDagGen(t *testing.T, seed int64) *dagGen {
	g := &dagGen{r: rand.New(rand.NewSource(seed))}
	g.nodes = 2 + g.r.Intn(3)
	fact := make([]engine.Row, 20+g.r.Intn(180))
	for i := range fact {
		fact[i] = engine.Row{int64(i), int64(g.r.Intn(8)), float64(g.r.Intn(400)) / 4, dagStrings[g.r.Intn(len(dagStrings))]}
	}
	dim := make([]engine.Row, 8)
	for i := range dim {
		dim[i] = engine.Row{int64(i), dagStrings[i%len(dagStrings)]}
	}
	for _, tb := range []struct {
		name   string
		schema engine.Schema
		rows   []engine.Row
		key    int
	}{
		{"fact", engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "g", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeFloat}, {Name: "s", Type: engine.TypeString}}, fact, g.r.Intn(2) - 1},
		{"dim", engine.Schema{{Name: "g", Type: engine.TypeInt}, {Name: "name", Type: engine.TypeString}}, dim, 0},
	} {
		tab, err := engine.NewTable(tb.name, tb.schema, tb.rows, g.nodes, tb.key)
		if err != nil {
			t.Fatal(err)
		}
		g.tables = append(g.tables, tab)
	}
	return g
}

func (g *dagGen) name(kind string) string {
	g.named++
	return fmt.Sprintf("%s-%d", kind, g.named)
}

// reachable lists the DAG's operators, each once, producers first.
func reachable(root engine.Operator) []engine.Operator {
	var out []engine.Operator
	seen := map[engine.Operator]bool{}
	var visit func(engine.Operator)
	visit = func(op engine.Operator) {
		if seen[op] {
			return
		}
		seen[op] = true
		for _, in := range op.Inputs() {
			visit(in)
		}
		out = append(out, op)
	}
	visit(root)
	return out
}

// colsOf returns the columns of s whose type satisfies keep.
func colsOf(s engine.Schema, keep func(engine.ColType) bool) []int {
	var out []int
	for i, c := range s {
		if keep(c.Type) {
			out = append(out, i)
		}
	}
	return out
}

func isNumeric(t engine.ColType) bool { return t != engine.TypeString }
func isInt(t engine.ColType) bool     { return t == engine.TypeInt }

func (g *dagGen) pick(cols []int) int { return cols[g.r.Intn(len(cols))] }

func (g *dagGen) constOf(t engine.ColType) engine.Const {
	switch t {
	case engine.TypeInt:
		return engine.Const{V: int64(g.r.Intn(12))}
	case engine.TypeFloat:
		return engine.Const{V: float64(g.r.Intn(100))}
	default:
		return engine.Const{V: dagStrings[g.r.Intn(len(dagStrings))]}
	}
}

// pred draws a comparison of a column (or arithmetic over one) with a
// constant of the same kind, sometimes a conjunction of two.
func (g *dagGen) pred(s engine.Schema) engine.Expr {
	c := g.r.Intn(len(s))
	var l engine.Expr = engine.Col(c)
	rhs := g.constOf(s[c].Type)
	if isNumeric(s[c].Type) && g.r.Intn(3) == 0 {
		l = engine.Arith{Op: engine.ArithOp(g.r.Intn(3)), L: l, R: g.constOf(engine.TypeFloat)}
		rhs = g.constOf(engine.TypeFloat)
	}
	p := engine.Cmp{Op: engine.CmpOp(g.r.Intn(6)), L: l, R: rhs}
	if g.r.Intn(4) == 0 {
		return engine.And{p, g.pred(s)}
	}
	return p
}

func (g *dagGen) scan() engine.Operator {
	tb := g.tables[g.r.Intn(len(g.tables))]
	var filter engine.Expr
	if g.r.Intn(2) == 0 {
		filter = g.pred(tb.Schema)
	}
	var project []int
	if g.r.Intn(3) == 0 {
		for c := range tb.Schema {
			if g.r.Intn(2) == 0 {
				project = append(project, c)
			}
		}
	}
	return engine.NewScan(g.name("scan"), tb, filter, project)
}

func (g *dagGen) project(in engine.Operator) engine.Operator {
	s := in.OutSchema()
	n := 1 + g.r.Intn(3)
	exprs := make([]engine.Expr, n)
	out := make(engine.Schema, n)
	for i := range exprs {
		c := g.r.Intn(len(s))
		out[i].Name = fmt.Sprintf("p%d", i)
		switch k := g.r.Intn(3); {
		case k == 0 && isNumeric(s[c].Type):
			exprs[i] = engine.Arith{Op: engine.ArithOp(g.r.Intn(3)), L: engine.Col(c), R: g.constOf(engine.TypeFloat)}
			out[i].Type = engine.TypeFloat
		case k == 1:
			exprs[i] = engine.Cmp{Op: engine.CmpOp(g.r.Intn(6)), L: engine.Col(c), R: g.constOf(s[c].Type)}
			out[i].Type = engine.TypeInt
		default:
			exprs[i] = engine.Col(c)
			out[i].Type = s[c].Type
		}
	}
	return engine.NewProject(g.name("project"), in, exprs, out)
}

// aggregate draws an aggregation over in: one phase (after an exchange on the
// first group column unless global), or half the time the two phases Compile
// plans — a partial aggregate where the rows are, an exchange of the partials
// on their first group column, and the merge, which gathers instead when
// nothing is grouped.
func (g *dagGen) aggregate(in engine.Operator, global bool) engine.Operator {
	s := in.OutSchema()
	var groups []int
	var out engine.Schema
	for i, n := 0, g.r.Intn(3); i < n; i++ {
		c := g.r.Intn(len(s))
		groups = append(groups, c)
		out = append(out, s[c])
	}
	num := colsOf(s, isNumeric)
	var aggs []engine.AggSpec
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		kind := engine.AggKind(g.r.Intn(5))
		if len(num) == 0 && (kind == engine.AggSum || kind == engine.AggAvg) {
			kind = engine.AggCount
		}
		spec := engine.AggSpec{Kind: kind}
		col := engine.Column{Name: fmt.Sprintf("a%d", i), Type: engine.TypeFloat}
		switch kind {
		case engine.AggCount:
			col.Type = engine.TypeInt
		case engine.AggSum, engine.AggAvg:
			spec.Col = g.pick(num)
		default:
			spec.Col = g.r.Intn(len(s))
			col.Type = s[spec.Col].Type
		}
		aggs = append(aggs, spec)
		out = append(out, col)
	}
	if g.r.Intn(2) == 0 {
		var partials engine.Operator = engine.NewPartialAggregate(g.name("partial"), in, groups, aggs)
		if len(groups) > 0 {
			partials = engine.NewExchange(g.name("exchange"), partials, 0)
		}
		return engine.NewMergeAggregate(g.name("merge"), partials, len(groups), aggs, len(groups) == 0, out)
	}
	if !global && len(groups) > 0 {
		in = engine.NewExchange(g.name("exchange"), in, groups[0])
	}
	return engine.NewHashAggregate(g.name("agg"), in, groups, aggs, global, out)
}

// plan draws a sub-DAG of at most the given depth.
func (g *dagGen) plan(depth int) engine.Operator {
	if depth == 0 || g.r.Intn(5) == 0 {
		return g.scan()
	}
	in := g.plan(depth - 1)
	s := in.OutSchema()
	switch g.r.Intn(10) {
	case 0:
		return engine.NewSelect(g.name("select"), in, g.pred(s))
	case 1:
		return g.project(in)
	case 2:
		return g.aggregate(in, false)
	case 3:
		return g.aggregate(in, true)
	case 4:
		return engine.NewExchange(g.name("exchange"), in, g.r.Intn(len(s)))
	case 5:
		// Join on integer keys, so matches happen.
		build := g.plan(depth - 1)
		bk, pk := colsOf(build.OutSchema(), isInt), colsOf(s, isInt)
		if len(bk) == 0 || len(pk) == 0 {
			return g.project(in)
		}
		return engine.NewHashJoin(g.name("join"), build, in, g.pick(bk), g.pick(pk))
	case 6:
		// A diamond: two filters over one shared sub-plan, concatenated.
		l := engine.NewSelect(g.name("select"), in, g.pred(s))
		r := engine.NewSelect(g.name("select"), in, g.pred(s))
		u, err := engine.NewUnionAll(g.name("union"), l, r)
		if err != nil {
			panic(err) // same schema on both sides by construction
		}
		return u
	case 7:
		return engine.NewSort(g.name("sort"), in, g.r.Intn(len(s)), g.r.Intn(2) == 0)
	case 8:
		return engine.NewLimit(g.name("limit"), in, g.r.Intn(12))
	default:
		sorted := engine.NewSort(g.name("sort"), in, g.r.Intn(len(s)), g.r.Intn(2) == 0)
		return engine.NewLimit(g.name("limit"), sorted, 1+g.r.Intn(20))
	}
}

// kill is one scripted node death.
type kill struct {
	op            string
	part, attempt int
}

// schedule draws one or two kills over the DAG's operators. The second is
// either the retry of the first — attempt 1 of the same partition — or the
// first attempt of any operator on another node: the operators of one
// pipelined chain run on one worker per partition and the first death ends the
// attempt, so a second death scripted for the same attempt never happens.
func (g *dagGen) schedule(ops []engine.Operator) []kill {
	first := kill{ops[g.r.Intn(len(ops))].Name(), g.r.Intn(g.nodes), 0}
	switch g.r.Intn(4) {
	case 0:
		return []kill{first, {first.op, first.part, 1}}
	case 1:
		other := (first.part + 1 + g.r.Intn(g.nodes-1)) % g.nodes
		return []kill{first, {ops[g.r.Intn(len(ops))].Name(), other, 0}}
	}
	return []kill{first}
}

// outcome is what one execution is compared by.
type outcome struct {
	parts    []int // rows per partition
	rows     []engine.Row
	failures int
	err      bool
}

func outcomeOf(res *engine.PartitionedResult, rep *engine.Report, err error) outcome {
	if err != nil {
		return outcome{err: true}
	}
	o := outcome{rows: res.AllRows(), failures: rep.Failures}
	for _, p := range res.Parts {
		o.parts = append(o.parts, len(p))
	}
	return o
}

// twoPhaseRole names an operator's part in a two-phase aggregation ("" when
// it has none).
func twoPhaseRole(op engine.Operator) string {
	name := op.Name()
	switch {
	case strings.HasPrefix(name, "partial-"), strings.HasPrefix(name, "merge-"):
		return name[:strings.IndexByte(name, '-')]
	case strings.HasPrefix(name, "exchange-") && strings.HasPrefix(op.Inputs()[0].Name(), "partial-"):
		return "exchange of partials"
	}
	return ""
}

// differentialCase draws seed's DAG, a random M_P over every one of its
// operators and a kill schedule over them.
func differentialCase(t *testing.T, seed int64) (g *dagGen, root engine.Operator, ops []engine.Operator, kills []kill) {
	g = newDagGen(t, seed)
	root = g.plan(4)
	ops = reachable(root)
	for _, op := range ops {
		op.(interface{ SetMaterialize(bool) }).SetMaterialize(g.r.Intn(3) == 0)
	}
	return g, root, ops, g.schedule(ops)
}

// arm is one way of executing a differential case: clean, or under its kill
// schedule with either recovery.
type arm struct {
	name     string
	kill     bool
	recovery schemes.Recovery
}

var arms = []arm{
	{"clean", false, schemes.FineGrained},
	{"fine", true, schemes.FineGrained},
	{"coarse", true, schemes.CoarseRestart},
}

// script returns a fresh injector for the arm: nil when clean.
func (a arm) script(kills []kill) engine.FailureInjector {
	if !a.kill {
		return nil
	}
	inj := engine.NewScriptedFailures()
	for _, k := range kills {
		inj.Add(k.op, k.part, k.attempt)
	}
	return inj
}

func TestDifferentialOracle(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	killed := map[string]int{} // kills per two-phase role
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, root, ops, kills := differentialCase(t, seed)
			for _, k := range kills {
				for _, op := range ops {
					if op.Name() == k.op && twoPhaseRole(op) != "" {
						killed[twoPhaseRole(op)]++
					}
				}
			}
			// Two deaths on different nodes may overlap. The oracle restarts
			// once per death; the runtime's workers run concurrently, so a
			// coarse restart can take a second worker down before its own
			// scripted death — then that death never happens, and one
			// restart answers both.
			overlapping := len(kills) == 2 && kills[1].attempt == 0
			batches := []int{1 + g.r.Intn(9), 256}
			// Every buffer a clean execution draws from the arena goes back to
			// it; a killed attempt leaks its batches in flight to the GC, so it
			// may end with buffers out, never with more returned than drawn.
			arena := engine.NewArena()

			for _, arm := range arms {
				co := &engine.Coordinator{Nodes: g.nodes, Injector: arm.script(kills), Coarse: arm.recovery == schemes.CoarseRestart}
				want := outcomeOf(co.Execute(root))
				if arm.kill && !want.err && want.failures != len(kills) {
					t.Errorf("%s: oracle saw %d failures for the scripted kills %v", arm.name, want.failures, kills)
				}
				for _, batch := range batches {
					r, err := New(Config{Nodes: g.nodes, BatchSize: batch, Injector: arm.script(kills), Recovery: arm.recovery, Arena: arena})
					if err != nil {
						t.Fatal(err)
					}
					before := arena.Outstanding()
					got := outcomeOf(executeWithin(t, r, context.Background(), root))
					if out := arena.Outstanding() - before; out < 0 || (!arm.kill && out != 0) {
						t.Errorf("seed %d, %s, batch=%d: %d arena buffers outstanding after the execution", seed, arm.name, batch, out)
					}
					if arm.kill && arm.recovery == schemes.CoarseRestart && overlapping && !got.err && got.failures == 1 {
						got.failures = want.failures
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d, %s, batch=%d, kills %v: runtime and oracle disagree\n runtime: %d rows %v, failures=%d, err=%v\n  oracle: %d rows %v, failures=%d, err=%v",
							seed, arm.name, batch, kills,
							len(got.rows), got.parts, got.failures, got.err,
							len(want.rows), want.parts, want.failures, want.err)
					}
				}
			}
		})
	}
	for _, role := range []string{"partial", "exchange of partials", "merge"} {
		if killed[role] == 0 && !testing.Short() {
			t.Errorf("no schedule killed a two-phase aggregation's %s", role)
		}
	}
	t.Logf("kills on two-phase aggregations: %v", killed)
}

// TestReplayIsByteIdentical: recovery re-executes a lost partition from its
// materialized inputs and must reproduce what was lost byte for byte, so an
// execution may depend on its plan and failure schedule only — not on
// scheduling, map order or the clock. Each differential case runs twice and a
// third time on one thread, each into a fresh store; the rows and every
// stored block must be equal.
func TestReplayIsByteIdentical(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, root, ops, kills := differentialCase(t, seed)
			batch := 1 + g.r.Intn(9)
			for _, arm := range arms {
				// execute returns the rows per partition and the stored block
				// of every operator partition (nil where none was stored).
				execute := func() (outcome, [][]byte) {
					store := engine.NewMatStore()
					r, err := New(Config{Nodes: g.nodes, BatchSize: batch, Injector: arm.script(kills), Recovery: arm.recovery, Store: store})
					if err != nil {
						t.Fatal(err)
					}
					o := outcomeOf(executeWithin(t, r, context.Background(), root))
					o.failures = 0 // overlapping coarse kills may merge into one restart
					var blocks [][]byte
					for _, op := range ops {
						for part := 0; part < g.nodes; part++ {
							data, _ := store.GetEncoded(op.Name(), part)
							blocks = append(blocks, data)
						}
					}
					return o, blocks
				}
				want, wantBlocks := execute()
				again, againBlocks := execute()
				prev := goruntime.GOMAXPROCS(1)
				one, oneBlocks := execute()
				goruntime.GOMAXPROCS(prev)
				for _, run := range []struct {
					name   string
					got    outcome
					blocks [][]byte
				}{{"second run", again, againBlocks}, {"one thread", one, oneBlocks}} {
					if !reflect.DeepEqual(run.got, want) {
						t.Errorf("%s, %s: %d rows %v, err=%v; first run %d rows %v, err=%v",
							arm.name, run.name, len(run.got.rows), run.got.parts, run.got.err, len(want.rows), want.parts, want.err)
					}
					for i := range wantBlocks {
						if !bytes.Equal(run.blocks[i], wantBlocks[i]) {
							t.Errorf("%s, %s: stored block of %s partition %d differs from the first run's\n got %x\nwant %x",
								arm.name, run.name, ops[i/g.nodes].Name(), i%g.nodes, run.blocks[i], wantBlocks[i])
						}
					}
				}
			}
		})
	}
}
