package runtime

import (
	"context"
	"time"

	"ftpde/internal/obs"
)

// recoverFine handles an injected node failure under fine-grained recovery:
// the volatile (non-checkpointed) lineage of the failing stage on the failed
// node is lost, so it is re-ensured from the last materialized inputs and
// the failed partition is re-run. Nested failures during recovery loop until
// the partition lands or the per-partition attempt bound trips. Recoveries
// are serialized, mirroring the reference Coordinator's sequential recovery.
func (rn *run) recoverFine(ctx context.Context, s *stage, part int, nf *nodeFailure) error {
	rn.recoveryMu.Lock()
	defer rn.recoveryMu.Unlock()
	for {
		rn.dropLineageOnNode(s, nf.part)
		start := time.Now()
		err := rn.ensurePartition(ctx, s, part)
		// The whole recovery window is wasted work the failure caused — the
		// realized w(c) — and the ledger books it even when the window itself
		// died to a nested failure (that work was thrown away too).
		sp := obs.Span{Kind: obs.KindRecovery, Name: nf.op, Part: nf.part, Attempt: -1, Start: start, End: time.Now()}
		next, nested := asNodeFailure(err)
		if nested {
			sp.Err = next.Error()
		}
		rn.events.emit(sp)
		if !nested {
			return err
		}
		nf = next
	}
}

// ensurePartition recursively (re)computes one stage partition: restore from
// a checkpoint when possible, otherwise recover the inputs first and re-run
// the pipeline — the lineage walk of fine-grained recovery.
func (rn *run) ensurePartition(ctx context.Context, s *stage, part int) error {
	if rn.isDone(s, part) {
		return nil
	}
	if err := rn.ensureStageInputs(ctx, s, part); err != nil {
		return err
	}
	return rn.computePartition(ctx, s, part, true)
}

// ensureStageInputs recovers the input partitions a stage partition reads:
// wide sources need every partition of every input stage, narrow sources
// need the matching partition, scans need nothing — and a chained join needs
// every partition of its side.
func (rn *run) ensureStageInputs(ctx context.Context, s *stage, part int) error {
	for _, d := range s.deps {
		if err := rn.ensurePartitions(ctx, d, part, s.kind == srcWide); err != nil {
			return err
		}
	}
	for _, d := range s.sides {
		if err := rn.ensurePartitions(ctx, d, part, true); err != nil {
			return err
		}
	}
	return nil
}

// ensurePartitions ensures partition part of d, or every partition when all
// is set.
func (rn *run) ensurePartitions(ctx context.Context, d *stage, part int, all bool) error {
	if !all {
		return rn.ensurePartition(ctx, d, part)
	}
	for q := 0; q < rn.cfg.Nodes; q++ {
		if err := rn.ensurePartition(ctx, d, q); err != nil {
			return err
		}
	}
	return nil
}

// dropLineageOnNode models the loss of the failed node's in-memory state:
// every volatile (non-checkpointed) partition the failing stage's lineage
// hosted on that node is discarded and must be recomputed. Checkpointed
// stages survive in the fault-tolerant store.
func (rn *run) dropLineageOnNode(s *stage, node int) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	for _, a := range s.ancestors {
		if a.checkpoint {
			continue
		}
		if rn.done[a][node] {
			now := time.Now()
			rn.events.emit(obs.Span{Kind: obs.KindLost, Name: a.name(), Part: node, Attempt: -1,
				Start: now, End: now, Rows: int64(rn.results[a].Parts[node].Len()), Parts: rn.cfg.Nodes})
			rn.publishLocked(a, node, nil, true)
			rn.done[a][node] = false
		}
	}
}
