package runtime

import (
	"fmt"

	"ftpde/internal/engine"
)

// sourceKind classifies how a stage's source operator reads its inputs, which
// determines both scheduling (what must exist before the stage can run) and
// fine-grained recovery (what must be re-ensured after a node failure).
type sourceKind int

const (
	// srcScan reads base tables only; it has no stage dependencies.
	srcScan sourceKind = iota
	// srcWide reads every partition of every input stage (exchange, joins,
	// global aggregation, sort).
	srcWide
	// srcNarrow reads partition p of each input stage to produce output
	// partition p (a narrow operator cut off its producer by a
	// materialization point or a shared sub-plan).
	srcNarrow
)

// stage is one node of the runtime's execution DAG: a source operator
// followed by a chain of streamable narrow operators and broadcast joins
// probed by the stream. Within a stage, typed columnar batches pass from one
// operator's kernel to the next; stage boundaries are barriers where the full
// partitioned result is buffered (and, for materialization points,
// checkpointed asynchronously).
type stage struct {
	id   int // the stage's index in stagePlan.stages and in a run's state
	kind sourceKind
	// ops is the pipeline chain; ops[0] is the source, the rest are executed
	// through fresh batch kernels per attempt (engine.NewOperatorKernel, or
	// HashJoin.JoinKernel for a join probed by the stream).
	ops []engine.Operator
	// first is the plan ordinal of ops[0]: ops[i] is operator first+i, whose
	// attempts a run counts under that number.
	first int
	// deps are the producer stages of the source's inputs, one per input in
	// input order (a shared input is there twice).
	deps []*stage
	// sides are the build stages of the chained joins, in chain order: read
	// in full by every partition, so waited for and ensured like wide deps.
	sides []*stage
	// checkpoint marks a materialization point: the terminal operator's
	// output is written to the fault-tolerant store.
	checkpoint bool
}

func (s *stage) source() engine.Operator   { return s.ops[0] }
func (s *stage) terminal() engine.Operator { return s.ops[len(s.ops)-1] }

// name identifies the stage by its terminal operator — the same key the
// reference Coordinator materializes under, so checkpoints written by one
// are restorable by the other.
func (s *stage) name() string { return s.terminal().Name() }

// stagePlan is a compiled stage DAG for one query. A run indexes its state by
// stage.id and stage.first, so the graph is its only index.
type stagePlan struct {
	stages []*stage // by id, in the order buildStages reached their sources
	root   *stage
	ops    int // operators in the plan, numbered stage by stage along each chain
}

// buildStages cuts the operator DAG into pipelined stages. An operator joins
// the stage of the input it streams from when that input is the stage's
// terminal, not a materialization point, and has no other consumer — so
// everything between two stage boundaries runs as one loop, the way
// cost.Collapse folds an operator with m(o) = 0 into its consumer. Two kinds
// of operator stream: a single-input narrow one with a kernel
// (engine.Streamable), from its input; and a broadcast hash join, from its
// probe input, whose build stage becomes a side of the chain (a join that
// builds and probes one operator gives it two consumers, so it never
// chains). Everything else — scans, wide operators, consumers of
// materialized or shared outputs — starts a new stage. A plan with an
// operator that cannot execute on typed columns is rejected here
// (engine.ErrNotColumnar), before any goroutine starts or checkpoint is
// written.
func buildStages(root engine.Operator, nodes int) (*stagePlan, error) {
	if root == nil {
		return nil, fmt.Errorf("runtime: nil plan root")
	}
	order, pos, consumers, err := topoSort(root)
	if err != nil {
		return nil, err
	}
	plan := &stagePlan{}
	byPos := make([]*stage, len(order)) // the stage of each operator, by position in order
	stageOf := func(op engine.Operator) *stage { return byPos[pos[op.Name()]] }
	// chainTail returns the stage op can stream from through input in, or nil.
	chainTail := func(in engine.Operator) *stage {
		if s := stageOf(in); !in.Materialize() && consumers[pos[in.Name()]] == 1 && s.terminal() == in {
			return s
		}
		return nil
	}
	for i, op := range order {
		if err := engine.CheckColumnar(op); err != nil {
			return nil, fmt.Errorf("runtime: %w", err)
		}
		ins := op.Inputs()
		var s *stage
		if _, ok := op.(*engine.HashJoin); ok {
			if s = chainTail(ins[1]); s != nil {
				s.sides = append(s.sides, stageOf(ins[0]))
			}
		} else if len(ins) == 1 && engine.Streamable(op) {
			s = chainTail(ins[0])
		}
		if s != nil {
			s.ops = append(s.ops, op)
			s.checkpoint = op.Materialize()
			byPos[i] = s
			continue
		}
		s = &stage{id: len(plan.stages), ops: []engine.Operator{op}, checkpoint: op.Materialize(), deps: make([]*stage, len(ins))}
		switch {
		case len(ins) == 0:
			s.kind = srcScan
		case op.Wide():
			s.kind = srcWide
		default:
			s.kind = srcNarrow
		}
		for k, in := range ins {
			d := stageOf(in)
			if d.terminal() != in {
				return nil, fmt.Errorf("runtime: stage input %s is not a stage boundary", in.Name())
			}
			s.deps[k] = d
		}
		plan.stages = append(plan.stages, s)
		byPos[i] = s
	}
	plan.root = byPos[len(order)-1]
	for _, s := range plan.stages {
		s.first = plan.ops
		plan.ops += len(s.ops)
	}
	return plan, nil
}

// lineage returns s plus its transitive dependencies, sides included, depth
// first: the volatile state a node failure while computing s drops.
func (p *stagePlan) lineage(s *stage) []*stage {
	seen := make([]bool, len(p.stages))
	var out []*stage
	var visit func(*stage)
	visit = func(x *stage) {
		if seen[x.id] {
			return
		}
		seen[x.id] = true
		out = append(out, x)
		for _, d := range x.deps {
			visit(d)
		}
		for _, d := range x.sides {
			visit(d)
		}
	}
	visit(s)
	return out
}

// topoSort orders the operator DAG producers-first, root last, and counts
// each operator's consumers (deduplicating shared sub-plans by identity), by
// position in order. It rejects duplicate operator names, which would collide
// in the checkpoint store, so pos finds an operator's position by its name.
func topoSort(root engine.Operator) (order []engine.Operator, pos map[string]int, consumers []int, err error) {
	pos = make(map[string]int)
	var visit func(op engine.Operator) error
	visit = func(op engine.Operator) error {
		if i, ok := pos[op.Name()]; ok {
			// -1 is an operator still being visited: in a DAG, another one.
			if i < 0 || order[i] != op {
				return fmt.Errorf("runtime: duplicate operator name %q in query", op.Name())
			}
			return nil
		}
		pos[op.Name()] = -1
		for _, in := range op.Inputs() {
			if err := visit(in); err != nil {
				return err
			}
		}
		pos[op.Name()] = len(order)
		order = append(order, op)
		return nil
	}
	if err := visit(root); err != nil {
		return nil, nil, nil, err
	}
	consumers = make([]int, len(order))
	for _, op := range order {
		for _, in := range op.Inputs() {
			consumers[pos[in.Name()]]++
		}
	}
	return order, pos, consumers, nil
}
