package engine

// DefaultBatchSize is the vector width used by the pipelined runtime when
// none is configured.
const DefaultBatchSize = 256

// Streamable reports whether op can run batch-at-a-time inside a pipelined
// stage from its one input: a single-input, narrow operator with a batch
// kernel. Select and Project are row-local; partition-wise (non-global)
// HashAggregate is stateful but still narrow — its kernel accumulates across
// the partition's batches and emits at end of stream. Wide operators
// (exchange, global aggregation, sort, limit) read whole partitions and cut
// stages. A HashJoin is not Streamable — it has two inputs — but the runtime
// streams its probe input through HashJoin.JoinKernel when that input is a
// stage tail, reading the build input in full beside the stream.
func Streamable(op Operator) bool {
	if op.Wide() || len(op.Inputs()) != 1 {
		return false
	}
	switch o := op.(type) {
	case *Select, *Project:
		return true
	case *HashAggregate:
		return !o.global
	default:
		return false
	}
}
