package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// FailureInjector decides whether the node hosting partition `part` dies
// while computing (op, part) on the given attempt (0 = first try).
// Implementations must eventually return false for increasing attempts or
// execution cannot finish.
type FailureInjector interface {
	FailCompute(op string, part, attempt int) bool
}

// NoFailures never injects a failure.
type NoFailures struct{}

// FailCompute implements FailureInjector.
func (NoFailures) FailCompute(string, int, int) bool { return false }

// ScriptedFailures injects failures at scripted (op, partition, attempt)
// points — the engine-level analogue of the paper's failure traces. It is
// safe for concurrent use: partition workers read the script while tests
// (or an interactive driver) extend it.
type ScriptedFailures struct {
	mu     sync.Mutex
	script map[failPoint]bool
}

// failPoint is one scripted kill: attempt of op's partition part.
type failPoint struct {
	op            string
	part, attempt int
}

// NewScriptedFailures returns an empty script.
func NewScriptedFailures() *ScriptedFailures {
	return &ScriptedFailures{script: make(map[failPoint]bool)}
}

// ParseFailures reads a comma-separated list of op/partition/attempt
// triples (the -fail vocabulary) into a script. Empty entries are skipped;
// a negative partition or attempt is rejected, since it could never fire.
func ParseFailures(spec string) (*ScriptedFailures, error) {
	s := NewScriptedFailures()
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		f := strings.Split(entry, "/")
		if len(f) != 3 || f[0] == "" {
			return nil, fmt.Errorf("bad -fail entry %q, want op/partition/attempt", entry)
		}
		part, err1 := strconv.Atoi(f[1])
		attempt, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || part < 0 || attempt < 0 {
			return nil, fmt.Errorf("bad -fail entry %q, want a non-negative partition and attempt", entry)
		}
		s.Add(f[0], part, attempt)
	}
	return s, nil
}

// Add schedules a failure when op's partition is computed the given attempt.
func (s *ScriptedFailures) Add(op string, part, attempt int) *ScriptedFailures {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.script[failPoint{op, part, attempt}] = true
	return s
}

// FailCompute implements FailureInjector.
func (s *ScriptedFailures) FailCompute(op string, part, attempt int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.script[failPoint{op, part, attempt}]
}

// MatStore is the fault-tolerant storage medium for materialized
// intermediates (the paper's external iSCSI storage): writes survive node
// failures. A partition is held in the form it arrived in — rows from the
// oracle's Put, a block from the runtime's PutGroup — and converted only
// when the other half asks for it.
type MatStore struct {
	mu   sync.Mutex
	data map[string][]matPart
}

// matPart is one stored partition: rows or block, never both; neither is
// "not stored".
type matPart struct {
	rows  []Row
	block []byte
}

// NewMatStore returns an empty store.
func NewMatStore() *MatStore {
	return &MatStore{data: make(map[string][]matPart)}
}

func (m *MatStore) put(op string, part int, p matPart, parts int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps, ok := m.data[op]
	if !ok {
		ps = make([]matPart, parts)
		m.data[op] = ps
	}
	ps[part] = p
}

func (m *MatStore) get(op string, part int) matPart {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ps := m.data[op]; part < len(ps) {
		return ps[part]
	}
	return matPart{}
}

// Put stores one partition of an operator's output. The in-memory store
// cannot fail, so the error is always nil.
func (m *MatStore) Put(op string, part int, rows []Row, parts int) error {
	m.put(op, part, matPart{rows: rows}, parts)
	return nil
}

// PutGroup implements EncodedStore: the store keeps a copy of each block.
func (m *MatStore) PutGroup(op string, parts int, group []PartBlock) error {
	for _, g := range group {
		m.put(op, g.Part, matPart{block: append([]byte(nil), g.Data...)}, parts)
	}
	return nil
}

// Get returns one stored partition; ok reports whether it exists. A block
// that does not decode is a miss.
func (m *MatStore) Get(op string, part int) ([]Row, bool) {
	p := m.get(op, part)
	if p.block != nil {
		rows, err := DecodeBlockFile(p.block)
		return rows, err == nil
	}
	return p.rows, p.rows != nil
}

// GetEncoded implements EncodedStore. Rows with no block form are a miss.
func (m *MatStore) GetEncoded(op string, part int) ([]byte, bool) {
	p := m.get(op, part)
	if p.block != nil || p.rows == nil {
		return p.block, p.block != nil
	}
	return EncodeColumnBlock(p.rows)
}

// Report summarizes an execution.
type Report struct {
	// Failures counts injected node failures.
	Failures int
	// RecomputedPartitions counts partition computations re-done during
	// fine-grained recovery (lineage recomputation).
	RecomputedPartitions int
	// Restarts counts full-query restarts (coarse recovery).
	Restarts int
	// MaterializedPartitions counts partitions written to the FT store.
	MaterializedPartitions int
	// Aborted is set when MaxRestarts was exceeded.
	Aborted bool
}

// Coordinator is the reference executor: a naive, telemetry-free row
// interpreter that runs a query DAG one operator at a time through the
// operators' Compute methods, monitors for (injected) worker failures and
// recovers — fine-grained by recomputing lost partitions from the last
// materialized intermediates, or coarse-grained by restarting the whole
// query. Tests and the benchmark take their ground-truth rows and Report
// counts from it; internal/runtime is the executor that serves queries.
//
// It shares Store, FailureInjector, Report and the operator DAG with the
// runtime, and nothing of the batch data plane: no Batch, Vector, compiled
// expression or kernel is reachable from Execute.
type Coordinator struct {
	// Nodes is the cluster size (= partition count of every intermediate).
	Nodes int
	// Injector provides failure decisions; nil means no failures.
	Injector FailureInjector
	// Coarse switches to restart-the-query recovery.
	Coarse bool
	// MaxRestarts bounds coarse recovery (0 = 100, as in the paper).
	MaxRestarts int
	// Store is the fault-tolerant medium; nil allocates a fresh one.
	Store Store
}

const maxAttemptsPerPartition = 1000

type execState struct {
	co       *Coordinator
	results  map[Operator]*PartitionedResult
	done     map[Operator][]bool
	attempts map[string]int
	report   *Report
	order    []Operator
}

// Execute runs the query rooted at root and returns its partitioned result.
func (co *Coordinator) Execute(root Operator) (*PartitionedResult, *Report, error) {
	if co.Nodes <= 0 {
		return nil, nil, fmt.Errorf("engine: coordinator needs at least one node")
	}
	if co.Injector == nil {
		co.Injector = NoFailures{}
	}
	if co.Store == nil {
		co.Store = NewMatStore()
	}
	order, err := topoSort(root)
	if err != nil {
		return nil, nil, err
	}
	report := &Report{}
	maxRestarts := co.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = 100
	}
	// Attempts persist across coarse restarts so scripted failure traces
	// advance (a restarted query re-runs every operator, but the trace has
	// moved on).
	attempts := make(map[string]int)
	for {
		st := &execState{
			co:       co,
			results:  make(map[Operator]*PartitionedResult),
			done:     make(map[Operator][]bool),
			attempts: attempts,
			report:   report,
			order:    order,
		}
		res, err := st.run(root)
		if err == nil {
			return res, report, nil
		}
		if _, restart := err.(*restartFailure); co.Coarse && restart {
			report.Failures++
			report.Restarts++
			if report.Restarts > maxRestarts {
				report.Aborted = true
				return nil, report, fmt.Errorf("engine: query aborted after %d restarts", report.Restarts-1)
			}
			continue // restart from scratch
		}
		return nil, report, err
	}
}

// restartFailure signals a node failure under coarse recovery.
type restartFailure struct {
	op   string
	part int
}

func (r *restartFailure) Error() string {
	return fmt.Sprintf("engine: node %d failed while computing %s", r.part, r.op)
}

func (st *execState) run(root Operator) (*PartitionedResult, error) {
	for _, op := range st.order {
		if err := st.computeAll(op); err != nil {
			return nil, err
		}
	}
	return st.results[root], nil
}

// computeAll produces every partition of op: the failure-free path runs
// partition workers in parallel goroutines; injected failures are then
// recovered sequentially.
func (st *execState) computeAll(op Operator) error {
	st.ensureResult(op)
	parts := st.co.Nodes

	// An earlier recovery may have dropped partitions of inputs computed
	// before the failure; restore them before the parallel pass reads them.
	for _, in := range op.Inputs() {
		for p := 0; p < parts; p++ {
			if !st.done[in][p] {
				if err := st.ensure(in, p); err != nil {
					return err
				}
			}
		}
	}

	type outcome struct {
		rows      []Row
		failed    bool
		fromStore bool
		err       error
	}
	out := make([]outcome, parts)
	var wg sync.WaitGroup
	for part := 0; part < parts; part++ {
		// Already restored from the FT store?
		if st.done[op][part] {
			continue
		}
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			if rows, ok := st.co.Store.Get(op.Name(), part); ok && op.Materialize() {
				out[part] = outcome{rows: rows, fromStore: true}
				return
			}
			if st.co.Injector.FailCompute(op.Name(), part, st.attempts[attemptKey(op, part)]) {
				out[part] = outcome{failed: true}
				return
			}
			rows, err := op.Compute(part, st.inputResults(op))
			out[part] = outcome{rows: rows, err: err}
		}(part)
	}
	wg.Wait()

	var failedParts []int
	for part := 0; part < parts; part++ {
		if st.done[op][part] {
			continue
		}
		o := out[part]
		if o.err != nil {
			return o.err
		}
		if o.failed {
			failedParts = append(failedParts, part)
			continue
		}
		if !o.fromStore {
			st.attempts[attemptKey(op, part)]++
		}
		if err := st.commit(op, part, o.rows); err != nil {
			return err
		}
	}

	for _, part := range failedParts {
		st.attempts[attemptKey(op, part)]++
		if st.co.Coarse {
			return &restartFailure{op: op.Name(), part: part}
		}
		st.report.Failures++
		st.dropVolatileOnNode(part)
		if err := st.ensure(op, part); err != nil {
			return err
		}
	}
	return nil
}

// ensure recursively (re)computes one partition, recovering lost inputs
// first — the lineage walk of fine-grained recovery.
func (st *execState) ensure(op Operator, part int) error {
	st.ensureResult(op)
	if st.done[op][part] {
		return nil
	}
	// Materialized output survives failures: restore from the FT store.
	if op.Materialize() {
		if rows, ok := st.co.Store.Get(op.Name(), part); ok {
			return st.commit(op, part, rows)
		}
	}
	key := attemptKey(op, part)
	for {
		// Recover inputs (again after every failure, which may have lost
		// them): narrow operators need partition `part`, wide operators need
		// every partition of every input.
		for _, in := range op.Inputs() {
			if op.Wide() {
				for p := 0; p < st.co.Nodes; p++ {
					if err := st.ensure(in, p); err != nil {
						return err
					}
				}
			} else if err := st.ensure(in, part); err != nil {
				return err
			}
		}
		attempt := st.attempts[key]
		if attempt > maxAttemptsPerPartition {
			return fmt.Errorf("engine: partition %d of %s exceeded %d attempts", part, op.Name(), maxAttemptsPerPartition)
		}
		st.attempts[key]++
		if st.co.Injector.FailCompute(op.Name(), part, attempt) {
			if st.co.Coarse {
				return &restartFailure{op: op.Name(), part: part}
			}
			st.report.Failures++
			st.dropVolatileOnNode(part)
			continue
		}
		rows, err := op.Compute(part, st.inputResults(op))
		if err != nil {
			return err
		}
		st.report.RecomputedPartitions++
		return st.commit(op, part, rows)
	}
}

// commit records a computed partition and persists it when materialized. A
// store write failure is returned: recovery must never proceed believing a
// checkpoint exists that never durably landed.
func (st *execState) commit(op Operator, part int, rows []Row) error {
	res := st.ensureResult(op)
	res.Parts[part] = rows
	res.Lost[part] = false
	st.done[op][part] = true
	if !op.Materialize() {
		return nil
	}
	if _, already := st.co.Store.Get(op.Name(), part); already {
		return nil
	}
	if err := st.co.Store.Put(op.Name(), part, rows, st.co.Nodes); err != nil {
		return fmt.Errorf("engine: materialize %s/%d: %w", op.Name(), part, err)
	}
	st.report.MaterializedPartitions++
	return nil
}

// dropVolatileOnNode models the loss of all in-memory (non-materialized)
// intermediate partitions hosted on the failed node. Scan output counts as
// volatile too: the partitioned database survives, the scanned rows do not.
func (st *execState) dropVolatileOnNode(node int) {
	for op, res := range st.results {
		if op.Materialize() || !st.done[op][node] {
			continue
		}
		res.Parts[node] = nil
		res.Lost[node] = true
		st.done[op][node] = false
	}
}

func (st *execState) ensureResult(op Operator) *PartitionedResult {
	res, ok := st.results[op]
	if !ok {
		res = newResult(op.OutSchema(), st.co.Nodes)
		st.results[op] = res
		st.done[op] = make([]bool, st.co.Nodes)
	}
	return res
}

func (st *execState) inputResults(op Operator) []*PartitionedResult {
	ins := op.Inputs()
	out := make([]*PartitionedResult, len(ins))
	for i, in := range ins {
		out[i] = st.results[in]
	}
	return out
}

func attemptKey(op Operator, part int) string {
	return fmt.Sprintf("%s/%d", op.Name(), part)
}

// topoSort orders the DAG producers-first, deduplicating shared sub-plans by
// operator identity, and rejects duplicate operator names (which would
// collide in the materialization store).
func topoSort(root Operator) ([]Operator, error) {
	var order []Operator
	seen := make(map[Operator]bool)
	names := make(map[string]bool)
	var visit func(op Operator) error
	visit = func(op Operator) error {
		if seen[op] {
			return nil
		}
		seen[op] = true
		for _, in := range op.Inputs() {
			if err := visit(in); err != nil {
				return err
			}
		}
		if names[op.Name()] {
			return fmt.Errorf("engine: duplicate operator name %q in query", op.Name())
		}
		names[op.Name()] = true
		order = append(order, op)
		return nil
	}
	if err := visit(root); err != nil {
		return nil, err
	}
	return order, nil
}
