package engine

import (
	"fmt"
	"sort"
)

// Operator is a physical operator of the engine. Every operator produces a
// partitioned result with one partition per cluster node.
//
// Narrow (partition-wise) operators read only partition p of each input to
// produce output partition p; wide operators (exchange, broadcast-join build
// sides, global aggregation) read all partitions of (some) inputs. The
// distinction drives recovery: recomputing a lost partition of a narrow
// operator needs one partition per input, a wide operator needs them all.
type Operator interface {
	// Name identifies the operator for materialization and reporting; it
	// must be unique within a query.
	Name() string
	// Inputs returns the producer operators.
	Inputs() []Operator
	// OutSchema describes the output rows.
	OutSchema() Schema
	// Materialize reports whether the output is persisted to the
	// fault-tolerant store (the engine-level m(o) flag).
	Materialize() bool
	// Wide reports whether Compute reads all partitions of its inputs.
	Wide() bool
	// Compute produces output partition part from the inputs' results.
	Compute(part int, inputs []*PartitionedResult) ([]Row, error)
}

// PartitionedResult is an operator's output: one slice of rows per node.
type PartitionedResult struct {
	Schema Schema
	Parts  [][]Row
	// Lost[i] marks partition i as destroyed by a node failure (volatile
	// intermediates only; materialized results never get lost).
	Lost []bool
}

func newResult(schema Schema, parts int) *PartitionedResult {
	return &PartitionedResult{Schema: schema, Parts: make([][]Row, parts), Lost: make([]bool, parts)}
}

// AllRows flattens the result (for tests and sinks).
func (r *PartitionedResult) AllRows() []Row {
	var out []Row
	for _, p := range r.Parts {
		out = append(out, p...)
	}
	return out
}

// base provides common operator plumbing.
type base struct {
	name   string
	mat    bool
	inputs []Operator
	schema Schema
}

func (b *base) Name() string       { return b.name }
func (b *base) Inputs() []Operator { return b.inputs }
func (b *base) OutSchema() Schema  { return b.schema }
func (b *base) Materialize() bool  { return b.mat }

// SetMaterialize flips the engine-level m(o) flag; used by schemes to apply
// a materialization configuration to an executable query.
func (b *base) SetMaterialize(m bool) { b.mat = m }

// compilePredicateFor compiles an operator's predicate against its input
// schema; a failure becomes the operator's ErrNotColumnar reason.
func compilePredicateFor(kind, name string, pred Expr, schema Schema) (*CompiledPredicate, error) {
	cp, err := CompilePredicate(pred, schema)
	if err != nil {
		return nil, fmt.Errorf("engine: %s %s predicate: %w: %v", kind, name, ErrNotColumnar, err)
	}
	return cp, nil
}

// Scan reads a base table partition-wise, optionally filtering and
// projecting. Base tables are never lost (they live in the partitioned
// database, which is recovered by the DBMS itself), so Scan has no inputs.
type Scan struct {
	base
	table   *Table
	filter  Expr // optional
	cpred   *CompiledPredicate
	cerr    error // why filter did not compile (wraps ErrNotColumnar)
	project []int
	once    bool
}

// NewScan creates a scan over the named table. project selects column
// indexes (nil keeps all); filter drops rows when non-truthy (nil keeps all).
// The filter is compiled against the table schema at construction; scans over
// columnar partitions evaluate it without boxing rows.
func NewScan(name string, t *Table, filter Expr, project []int) *Scan {
	schema := t.Schema
	if project != nil {
		schema = projectSchema(t.Schema, project)
	}
	s := &Scan{base: base{name: name, schema: schema}, table: t, filter: filter, project: project}
	if filter != nil {
		s.cpred, s.cerr = compilePredicateFor("scan", name, filter, t.Schema)
	}
	return s
}

// NewScanOnce creates a scan over a replicated table that emits each row
// exactly once (in partition 0). Use it when a replicated table (NATION,
// REGION) feeds a broadcast join build side: a partition-wise scan would
// emit every replica and multiply join matches.
func NewScanOnce(name string, t *Table, filter Expr, project []int) *Scan {
	s := NewScan(name, t, filter, project)
	s.once = true
	return s
}

// Wide implements Operator.
func (s *Scan) Wide() bool { return false }

// Compiled reports whether the scan's filter evaluates through a compiled
// predicate (true when there is no filter: nothing runs interpreted).
func (s *Scan) Compiled() bool { return s.cerr == nil }

// Compute implements Operator: the interpreted loop over the partition's
// rows — the table's row view, derived once; after that it never looks at the
// columns again.
func (s *Scan) Compute(part int, _ []*PartitionedResult) ([]Row, error) {
	parts := s.table.RowParts()
	if part < 0 || part >= len(parts) {
		return nil, fmt.Errorf("engine: scan %s partition %d out of range", s.name, part)
	}
	if s.once && part != 0 {
		return nil, nil
	}
	var out []Row
	var slab []Value // projected rows are cut from shared slabs, not allocated one at a time
	for _, r := range parts[part] {
		if s.filter != nil {
			ok, err := truthy(s.filter, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if s.project != nil {
			w := len(s.project)
			if len(slab) < w {
				slab = make([]Value, 256*w)
			}
			pr := Row(slab[:w:w])
			slab = slab[w:]
			for i, c := range s.project {
				pr[i] = r[c]
			}
			r = pr
		}
		out = append(out, r)
	}
	return out, nil
}

// ComputeBatch implements BatchOperator, producing one partition natively as
// a batch (the inputs argument is unused: base tables have no producers).
// The table's columnar partition flows through the compiled predicate (a
// selection-vector filter, no row boxing) and a zero-copy column projection.
func (s *Scan) ComputeBatch(part int, _ []*BatchResult) (*Batch, error) {
	if s.cerr != nil {
		return nil, s.cerr
	}
	if part < 0 || part >= len(s.table.ColParts) {
		return nil, fmt.Errorf("engine: scan %s partition %d out of range", s.name, part)
	}
	if s.once && part != 0 {
		return nil, nil
	}
	b := s.table.ColParts[part]
	if s.cpred != nil {
		sel, err := s.cpred.Filter(b)
		if err != nil {
			return nil, err
		}
		b = &Batch{Schema: b.Schema, Cols: b.Cols, Sel: sel, nrows: b.nrows}
	}
	return b.Project(s.project, s.schema), nil
}

// filterRows keeps the rows whose predicate is truthy (nil when none is) —
// the oracle's filter loop, behind Select's Compute.
func filterRows(pred Expr, in []Row) ([]Row, error) {
	var out []Row
	for _, r := range in {
		ok, err := truthy(pred, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// projectRows evaluates exprs over every row (nil for no rows) — the oracle's
// projection loop, behind Project's Compute.
func projectRows(exprs []Expr, in []Row) ([]Row, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]Row, len(in))
	for ri, r := range in {
		nr := make(Row, len(exprs))
		for i, e := range exprs {
			v, err := e.Eval(r)
			if err != nil {
				return nil, err
			}
			nr[i] = v
		}
		out[ri] = nr
	}
	return out, nil
}

// Select filters rows partition-wise.
type Select struct {
	base
	pred  Expr
	cpred *CompiledPredicate
	cerr  error // why pred did not compile (wraps ErrNotColumnar)
}

// NewSelect creates a filter operator. The predicate is compiled against the
// input schema at construction; a predicate the compiler cannot handle makes
// the operator non-columnar (CheckColumnar reports why), which the runtime
// refuses to execute.
func NewSelect(name string, in Operator, pred Expr) *Select {
	s := &Select{base: base{name: name, inputs: []Operator{in}, schema: in.OutSchema()}, pred: pred}
	s.cpred, s.cerr = compilePredicateFor("select", name, pred, in.OutSchema())
	return s
}

// Wide implements Operator.
func (s *Select) Wide() bool { return false }

// Compiled reports whether the predicate evaluates through its compiled form.
func (s *Select) Compiled() bool { return s.cerr == nil }

// Compute implements Operator.
func (s *Select) Compute(part int, inputs []*PartitionedResult) ([]Row, error) {
	return filterRows(s.pred, inputs[0].Parts[part])
}

// Project evaluates expressions partition-wise.
type Project struct {
	base
	exprs  []Expr
	cexprs []*CompiledExpr
	cerr   error // why exprs did not compile to outSchema (wraps ErrNotColumnar)
}

// NewProject creates a projection; outSchema names the produced columns. The
// expressions are compiled against the input schema at construction; every
// expression must compile to the type its output column declares, otherwise
// the operator is non-columnar (CheckColumnar reports why) and the runtime
// refuses to execute it.
func NewProject(name string, in Operator, exprs []Expr, outSchema Schema) *Project {
	p := &Project{base: base{name: name, inputs: []Operator{in}, schema: outSchema}, exprs: exprs}
	if len(exprs) != len(outSchema) {
		p.cerr = fmt.Errorf("engine: project %s has %d expressions, schema %d: %w", name, len(exprs), len(outSchema), ErrNotColumnar)
		return p
	}
	p.cexprs = make([]*CompiledExpr, len(exprs))
	for i, e := range exprs {
		ce, err := Compile(e, in.OutSchema())
		if err == nil && ce.Type != outSchema[i].Type {
			err = fmt.Errorf("expression is %s, column is %s", ce.Type, outSchema[i].Type)
		}
		if err != nil {
			p.cerr = fmt.Errorf("engine: project %s column %d (%s): %w: %v", name, i, outSchema[i].Name, ErrNotColumnar, err)
			return p
		}
		p.cexprs[i] = ce
	}
	return p
}

// Wide implements Operator.
func (p *Project) Wide() bool { return false }

// Compiled reports whether every projection expression evaluates through its
// compiled form.
func (p *Project) Compiled() bool { return p.cerr == nil }

// Compute implements Operator.
func (p *Project) Compute(part int, inputs []*PartitionedResult) ([]Row, error) {
	return projectRows(p.exprs, inputs[0].Parts[part])
}

// Exchange hash-repartitions its input on a key column — the engine's
// repartitioning operator (wide: every output partition reads every input
// partition, like an MPP shuffle).
type Exchange struct {
	base
	keyCol int
}

// NewExchange creates a shuffle on the given key column.
func NewExchange(name string, in Operator, keyCol int) *Exchange {
	return &Exchange{base: base{name: name, inputs: []Operator{in}, schema: in.OutSchema()}, keyCol: keyCol}
}

// Wide implements Operator.
func (e *Exchange) Wide() bool { return true }

// Compute implements Operator.
func (e *Exchange) Compute(part int, inputs []*PartitionedResult) ([]Row, error) {
	n := uint64(len(inputs[0].Parts))
	var out []Row
	for _, p := range inputs[0].Parts {
		for _, r := range p {
			if e.keyCol >= len(r) {
				return nil, fmt.Errorf("engine: exchange %s key column %d out of range", e.name, e.keyCol)
			}
			if int(hashValue(r[e.keyCol])%n) == part {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// HashJoin joins a broadcast build side with a partition-wise probe side.
// The build input (inputs[0]) is read in full by every partition (broadcast
// join, suited to the smaller side); the probe input (inputs[1]) is read
// partition-wise. Output rows are the project columns of probe ++ build.
type HashJoin struct {
	base
	buildKey, probeKey int
	project            []int // output columns, as positions in probe ++ build
	probeWidth         int   // project entries below it name a probe column
}

// NewHashJoin creates a broadcast hash join that emits every probe column
// followed by every build column.
func NewHashJoin(name string, build, probe Operator, buildKey, probeKey int) *HashJoin {
	return NewHashJoinProject(name, build, probe, buildKey, probeKey, nil)
}

// NewHashJoinProject creates a broadcast hash join that emits only the listed
// columns of probe ++ build, in list order (nil keeps all). The keys index the
// inputs' own schemas, so a key that nothing above the join reads is simply
// left out of the list.
func NewHashJoinProject(name string, build, probe Operator, buildKey, probeKey int, project []int) *HashJoin {
	full := append(append(Schema{}, probe.OutSchema()...), build.OutSchema()...)
	if project == nil {
		project = make([]int, len(full))
		for i := range project {
			project[i] = i
		}
	}
	return &HashJoin{
		base:     base{name: name, inputs: []Operator{build, probe}, schema: projectSchema(full, project)},
		buildKey: buildKey, probeKey: probeKey,
		project: project, probeWidth: len(probe.OutSchema()),
	}
}

// Wide implements Operator. The build side is read in full; recovery of any
// partition therefore needs all build partitions (and one probe partition —
// the engine conservatively treats the operator as wide). That describes the
// join as a stage source (ComputeBatch, when its probe input is materialized
// or shared); chained onto its probe input's stage (JoinKernel) it streams
// the probe partition, and the runtime reads and recovers the build side in
// full as a side of that stage.
func (j *HashJoin) Wide() bool { return true }

// Compute implements Operator.
func (j *HashJoin) Compute(part int, inputs []*PartitionedResult) ([]Row, error) {
	build, probe := inputs[0], inputs[1]
	ht := make(map[uint64][]Row)
	for _, p := range build.Parts {
		for _, r := range p {
			if j.buildKey >= len(r) {
				return nil, fmt.Errorf("engine: join %s build key out of range", j.name)
			}
			h := hashValue(r[j.buildKey])
			ht[h] = append(ht[h], r)
		}
	}
	var out []Row
	for _, r := range probe.Parts[part] {
		if j.probeKey >= len(r) {
			return nil, fmt.Errorf("engine: join %s probe key out of range", j.name)
		}
		for _, b := range ht[hashValue(r[j.probeKey])] {
			cmp, err := compareValues(r[j.probeKey], b[j.buildKey])
			if err != nil {
				return nil, err
			}
			if cmp != 0 {
				continue // hash collision
			}
			nr := make(Row, len(j.project))
			for i, c := range j.project {
				if c < j.probeWidth {
					nr[i] = r[c]
				} else {
					nr[i] = b[c-j.probeWidth]
				}
			}
			out = append(out, nr)
		}
	}
	return out, nil
}

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate functions.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// The merge kinds fold the partial rows of a two-phase aggregation (aggSplits).
const (
	// aggCountMerge adds up partial counts, an int64 column.
	aggCountMerge AggKind = iota + AggAvg + 1
	// aggAvgMerge adds up partial sums (column Col) and partial counts (Col+1)
	// and divides.
	aggAvgMerge
)

// aggOutType is the type of the value spec yields over rows of schema in: SUM
// and AVG accumulate in float64, counts are int64, MIN and MAX hand back one
// of the argument's own values.
func aggOutType(spec AggSpec, in Schema) ColType {
	switch spec.Kind {
	case AggCount, aggCountMerge:
		return TypeInt
	case AggMin, AggMax:
		return in[spec.Col].Type
	}
	return TypeFloat
}

// AggSpec is one aggregate over an input column.
type AggSpec struct {
	Kind AggKind
	Col  int // ignored for AggCount
}

// aggSplits is the decomposition of each aggregate into a partial phase, run
// partition-wise where the rows are, and a merge phase over the partials: the
// partial aggregates it splits into (laid out in this order) and the kind that
// merges them. SUM is a sum of sums, COUNT a sum of counts, MIN and MAX are
// their own merge, AVG keeps a sum and a count and divides at the end.
var aggSplits = [...]struct {
	partial []AggKind
	merge   AggKind
}{
	AggSum:   {[]AggKind{AggSum}, AggSum},
	AggCount: {[]AggKind{AggCount}, aggCountMerge},
	AggMin:   {[]AggKind{AggMin}, AggMin},
	AggMax:   {[]AggKind{AggMax}, AggMax},
	AggAvg:   {[]AggKind{AggSum, AggCount}, aggAvgMerge},
}

// HashAggregate groups rows and computes aggregates. When Global is set the
// operator gathers all partitions into output partition 0 (a final/gather
// aggregation); otherwise it aggregates partition-wise (requires the input
// to be partitioned on the group key, e.g. via Exchange).
type HashAggregate struct {
	base
	groupCols []int
	aggs      []AggSpec
	global    bool
}

// NewHashAggregate creates an aggregation. outSchema must have
// len(groupCols)+len(aggs) columns.
func NewHashAggregate(name string, in Operator, groupCols []int, aggs []AggSpec, global bool, outSchema Schema) *HashAggregate {
	return &HashAggregate{
		base:      base{name: name, inputs: []Operator{in}, schema: outSchema},
		groupCols: groupCols, aggs: aggs, global: global,
	}
}

// NewPartialAggregate creates the partial phase of aggregating aggs over in,
// grouped on groupCols: partition-wise, one row per group of the partition —
// the group columns, then the partial aggregates aggSplits lists for each of
// aggs, in order.
func NewPartialAggregate(name string, in Operator, groupCols []int, aggs []AggSpec) *HashAggregate {
	inSchema := in.OutSchema()
	var schema Schema
	for _, g := range groupCols {
		schema = append(schema, inSchema[g])
	}
	var specs []AggSpec
	for _, a := range aggs {
		for _, k := range aggSplits[a.Kind].partial {
			spec := AggSpec{Kind: k, Col: a.Col}
			schema = append(schema, Column{Name: fmt.Sprintf("partial_%d", len(specs)), Type: aggOutType(spec, inSchema)})
			specs = append(specs, spec)
		}
	}
	return NewHashAggregate(name, in, groupCols, specs, false, schema)
}

// NewMergeAggregate creates the merge phase of a two-phase aggregation: in
// carries the rows of a NewPartialAggregate with ngroups group columns (or an
// exchange of them on a group column), and the result is what a one-phase
// NewHashAggregate of aggs with outSchema would emit. global gathers every
// partition's partials into partition 0.
func NewMergeAggregate(name string, in Operator, ngroups int, aggs []AggSpec, global bool, outSchema Schema) *HashAggregate {
	groups := make([]int, ngroups)
	for i := range groups {
		groups[i] = i
	}
	specs := make([]AggSpec, len(aggs))
	col := ngroups
	for i, a := range aggs {
		split := aggSplits[a.Kind]
		specs[i] = AggSpec{Kind: split.merge, Col: col}
		col += len(split.partial)
	}
	return NewHashAggregate(name, in, groups, specs, global, outSchema)
}

// Wide implements Operator.
func (a *HashAggregate) Wide() bool { return a.global }

// aggState is the accumulator of one group in the oracle's row loop.
type aggState struct {
	key    Row
	sums   []float64
	counts []int64
	mins   []Value
	maxs   []Value
}

func newAggState(key Row, naggs int) *aggState {
	return &aggState{
		key:    key,
		sums:   make([]float64, naggs),
		counts: make([]int64, naggs),
		mins:   make([]Value, naggs),
		maxs:   make([]Value, naggs),
	}
}

// updateMinMax folds v into the min/max accumulators of aggregate i
// (comparison errors leave the accumulators unchanged, as the interpreted
// loop always did).
func (st *aggState) updateMinMax(i int, v Value) {
	if st.mins[i] == nil {
		st.mins[i] = v
		st.maxs[i] = v
		return
	}
	if c, err := compareValues(v, st.mins[i]); err == nil && c < 0 {
		st.mins[i] = v
	}
	if c, err := compareValues(v, st.maxs[i]); err == nil && c > 0 {
		st.maxs[i] = v
	}
}

// groupTable is the group state of one aggregation in first-seen order: the
// oracle's row-at-a-time accumulator behind HashAggregate's Compute.
type groupTable struct {
	op     *HashAggregate
	groups map[string]*aggState
	order  []string
}

func newGroupTable(op *HashAggregate) groupTable {
	return groupTable{op: op, groups: make(map[string]*aggState)}
}

// addRow folds one boxed row into its group.
func (g *groupTable) addRow(r Row) error {
	a := g.op
	key := make(Row, len(a.groupCols))
	sig := ""
	for i, c := range a.groupCols {
		if c >= len(r) {
			return fmt.Errorf("engine: aggregate %s group column %d out of range", a.name, c)
		}
		key[i] = r[c]
		sig += fmt.Sprintf("%v|", r[c])
	}
	st, ok := g.groups[sig]
	if !ok {
		st = newAggState(key, len(a.aggs))
		g.groups[sig] = st
		g.order = append(g.order, sig)
	}
	for i, spec := range a.aggs {
		if spec.Kind == AggCount {
			st.counts[i]++
			continue
		}
		if spec.Col >= len(r) || (spec.Kind == aggAvgMerge && spec.Col+1 >= len(r)) {
			return fmt.Errorf("engine: aggregate %s column %d out of range", a.name, spec.Col)
		}
		v := r[spec.Col]
		f, okf := toFloat(v)
		if !okf && spec.Kind != AggMin && spec.Kind != AggMax {
			return fmt.Errorf("engine: aggregate %s over non-numeric %T", a.name, v)
		}
		switch spec.Kind {
		case aggCountMerge, aggAvgMerge:
			cv := v
			if spec.Kind == aggAvgMerge {
				st.sums[i] += f
				cv = r[spec.Col+1]
			}
			n, ok := cv.(int64)
			if !ok {
				return fmt.Errorf("engine: aggregate %s merges a count of type %T", a.name, cv)
			}
			st.counts[i] += n
		default:
			st.sums[i] += f
			st.counts[i]++
			st.updateMinMax(i, v)
		}
	}
	return nil
}

// rows assembles one output row per group, ordered by group signature (nil
// when there are no groups).
func (g *groupTable) rows() ([]Row, error) {
	if len(g.order) == 0 {
		return nil, nil
	}
	sort.Strings(g.order)
	out := make([]Row, 0, len(g.order))
	for _, sig := range g.order {
		st := g.groups[sig]
		r := append(Row{}, st.key...)
		for i, spec := range g.op.aggs {
			switch spec.Kind {
			case AggSum:
				r = append(r, st.sums[i])
			case AggCount, aggCountMerge:
				r = append(r, st.counts[i])
			case AggAvg, aggAvgMerge:
				if st.counts[i] == 0 {
					r = append(r, 0.0)
				} else {
					r = append(r, st.sums[i]/float64(st.counts[i]))
				}
			case AggMin:
				r = append(r, st.mins[i])
			case AggMax:
				r = append(r, st.maxs[i])
			default:
				return nil, fmt.Errorf("engine: unknown aggregate kind %d", int(spec.Kind))
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// Compute implements Operator: global aggregation gathers every input
// partition into partition 0, partition-wise aggregation folds just its own.
func (a *HashAggregate) Compute(part int, inputs []*PartitionedResult) ([]Row, error) {
	src := inputs[0].Parts[part : part+1]
	if a.global {
		if part != 0 {
			return nil, nil
		}
		src = inputs[0].Parts
	}
	g := newGroupTable(a)
	for _, p := range src {
		for _, r := range p {
			if err := g.addRow(r); err != nil {
				return nil, err
			}
		}
	}
	return g.rows()
}

// Sort orders rows globally by a column (gathers into partition 0).
type Sort struct {
	base
	col  int
	desc bool
}

// NewSort creates a global sort.
func NewSort(name string, in Operator, col int, desc bool) *Sort {
	return &Sort{base: base{name: name, inputs: []Operator{in}, schema: in.OutSchema()}, col: col, desc: desc}
}

// Wide implements Operator.
func (s *Sort) Wide() bool { return true }

// Compute implements Operator.
func (s *Sort) Compute(part int, inputs []*PartitionedResult) ([]Row, error) {
	if part != 0 {
		return nil, nil
	}
	var all []Row
	for _, p := range inputs[0].Parts {
		all = append(all, p...)
	}
	var sortErr error
	sort.SliceStable(all, func(i, j int) bool {
		c, err := compareValues(all[i][s.col], all[j][s.col])
		if err != nil {
			sortErr = err
			return false
		}
		if s.desc {
			return c > 0
		}
		return c < 0
	})
	if sortErr != nil {
		return nil, sortErr
	}
	return all, nil
}

func projectSchema(s Schema, cols []int) Schema {
	out := make(Schema, len(cols))
	for i, c := range cols {
		out[i] = s[c]
	}
	return out
}
