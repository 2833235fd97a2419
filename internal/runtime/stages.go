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
	id   int
	kind sourceKind
	// ops is the pipeline chain; ops[0] is the source, the rest are executed
	// through fresh batch kernels per attempt (engine.NewOperatorKernel, or
	// HashJoin.JoinKernel for a join probed by the stream).
	ops []engine.Operator
	// deps are the producer stages of the source's inputs, in input order.
	deps []*stage
	// sides are the build stages of the chained joins, in chain order: read
	// in full by every partition, so waited for and ensured like wide deps.
	sides []*stage
	// ancestors is the transitive dependency closure including the stage
	// itself — the lineage dropped on a node failure.
	ancestors []*stage
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

// stagePlan is a compiled stage DAG for one query.
type stagePlan struct {
	stages []*stage // topological order, producers first
	root   *stage
	byOp   map[engine.Operator]*stage
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
	order, consumers, err := topoSort(root)
	if err != nil {
		return nil, err
	}
	plan := &stagePlan{byOp: make(map[engine.Operator]*stage, len(order))}
	// chainTail returns the stage op can stream from through input in, or nil.
	chainTail := func(in engine.Operator) *stage {
		if s := plan.byOp[in]; !in.Materialize() && consumers[in] == 1 && s.terminal() == in {
			return s
		}
		return nil
	}
	for _, op := range order {
		if err := engine.CheckColumnar(op); err != nil {
			return nil, fmt.Errorf("runtime: %w", err)
		}
		ins := op.Inputs()
		var s *stage
		if _, ok := op.(*engine.HashJoin); ok {
			if s = chainTail(ins[1]); s != nil {
				s.sides = append(s.sides, plan.byOp[ins[0]])
			}
		} else if len(ins) == 1 && engine.Streamable(op) {
			s = chainTail(ins[0])
		}
		if s != nil {
			s.ops = append(s.ops, op)
			s.checkpoint = op.Materialize()
			plan.byOp[op] = s
			continue
		}
		s = &stage{id: len(plan.stages), ops: []engine.Operator{op}, checkpoint: op.Materialize()}
		switch {
		case len(ins) == 0:
			s.kind = srcScan
		case op.Wide():
			s.kind = srcWide
		default:
			s.kind = srcNarrow
		}
		seen := make(map[*stage]bool)
		for _, in := range ins {
			d := plan.byOp[in]
			if d.terminal() != in {
				return nil, fmt.Errorf("runtime: stage input %s is not a stage boundary", in.Name())
			}
			if !seen[d] {
				seen[d] = true
				s.deps = append(s.deps, d)
			}
		}
		plan.stages = append(plan.stages, s)
		plan.byOp[op] = s
	}
	plan.root = plan.byOp[root]
	for _, s := range plan.stages {
		s.ancestors = collectAncestors(s)
	}
	return plan, nil
}

// collectAncestors returns s plus its transitive dependencies, sides included.
func collectAncestors(s *stage) []*stage {
	seen := make(map[*stage]bool)
	var out []*stage
	var visit func(*stage)
	visit = func(x *stage) {
		if seen[x] {
			return
		}
		seen[x] = true
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

// topoSort orders the operator DAG producers-first, counts consumers per
// operator (deduplicating shared sub-plans by identity), and rejects
// duplicate operator names, which would collide in the checkpoint store.
func topoSort(root engine.Operator) ([]engine.Operator, map[engine.Operator]int, error) {
	var order []engine.Operator
	consumers := make(map[engine.Operator]int)
	seen := make(map[engine.Operator]bool)
	names := make(map[string]bool)
	var visit func(op engine.Operator) error
	visit = func(op engine.Operator) error {
		if seen[op] {
			return nil
		}
		seen[op] = true
		for _, in := range op.Inputs() {
			consumers[in]++
			if err := visit(in); err != nil {
				return err
			}
		}
		if names[op.Name()] {
			return fmt.Errorf("runtime: duplicate operator name %q in query", op.Name())
		}
		names[op.Name()] = true
		order = append(order, op)
		return nil
	}
	if err := visit(root); err != nil {
		return nil, nil, err
	}
	return order, consumers, nil
}
