package prof

import (
	"strings"
	"sync"
)

// maxTrackedQueries bounds the per-query CPU table. Finished queries are
// drained via TakeQueryCPUSeconds; anything beyond the bound (a caller that
// never drains, or labels from a runaway tenant) is dropped and counted.
const maxTrackedQueries = 256

// Attribution folds decoded profile windows into per-operator, per-query, and
// per-tenant CPU totals by joining samples on their pprof labels, and
// attributes heap allocations to operators indirectly: Go heap profiles do
// not carry goroutine labels, so alloc samples are joined through a
// function→operator map learned from the labeled CPU samples (each ftpde
// function is credited to the operator that spends the most CPU in it). The
// heap join is therefore approximate — exact for functions exclusive to one
// operator, majority-winner for shared kernels — which DESIGN.md §14 spells
// out.
type Attribution struct {
	funcPrefix string // only functions under this prefix feed the heap join

	mu        sync.Mutex
	opCPU     map[string]int64            // op → CPU ns, all queries
	tenantCPU map[string]int64            // tenant → CPU ns
	queryCPU  map[string]map[string]int64 // query → op → CPU ns (drained per query)
	lastWin   map[string]int64            // op → CPU ns in the most recent window
	funcOp    map[string]map[string]int64 // ftpde func → op → CPU ns
	opAlloc   map[string]int64            // op → alloc bytes (deltas between snapshots)
	lastHeap  map[string]int64            // op → cumulative alloc_space at last snapshot

	samples     int64 // CPU samples seen
	joined      int64 // CPU samples carrying an op or stage label
	cpuNanos    int64 // total CPU across all samples
	joinedNanos int64 // CPU attributed to a labeled op/stage
	heapSnaps   int64
	droppedQ    int64
}

func newAttribution(funcPrefix string) *Attribution {
	return &Attribution{
		funcPrefix: funcPrefix,
		opCPU:      make(map[string]int64),
		tenantCPU:  make(map[string]int64),
		queryCPU:   make(map[string]map[string]int64),
		funcOp:     make(map[string]map[string]int64),
		opAlloc:    make(map[string]int64),
		lastHeap:   make(map[string]int64),
	}
}

// AddCPU folds one decoded CPU window into the running totals.
func (a *Attribution) AddCPU(p *Profile) { a.AddCPUScaled(p, 1) }

// AddCPUScaled folds one decoded CPU window with every sample's weight
// multiplied by scale. Duty-cycled samplers pass 1/Duty so attributed seconds
// extrapolate the dark phases and remain unbiased estimates of true on-CPU
// time; sample counts stay raw.
func (a *Attribution) AddCPUScaled(p *Profile, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	win := make(map[string]int64)
	for i := range p.Samples {
		s := &p.Samples[i]
		ns := p.SampleCPUNanos(s)
		if ns <= 0 {
			continue
		}
		if scale != 1 {
			ns = int64(float64(ns) * scale)
		}
		a.samples++
		a.cpuNanos += ns
		op := s.Labels[LabelOp]
		if op == "" {
			op = s.Labels[LabelStage]
		}
		if op == "" {
			continue
		}
		a.joined++
		a.joinedNanos += ns
		a.opCPU[op] += ns
		win[op] += ns
		if t := s.Labels[LabelTenant]; t != "" {
			a.tenantCPU[t] += ns
		}
		if q := s.Labels[LabelQuery]; q != "" {
			qm := a.queryCPU[q]
			if qm == nil {
				if len(a.queryCPU) >= maxTrackedQueries {
					a.droppedQ++
				} else {
					qm = make(map[string]int64)
					a.queryCPU[q] = qm
				}
			}
			if qm != nil {
				qm[op] += ns
			}
		}
		for _, fn := range p.StackFuncs(s) {
			if !strings.HasPrefix(fn, a.funcPrefix) {
				continue
			}
			fm := a.funcOp[fn]
			if fm == nil {
				fm = make(map[string]int64)
				a.funcOp[fn] = fm
			}
			fm[op] += ns
		}
	}
	a.lastWin = win
}

// AddHeap folds one decoded heap ("allocs") snapshot. Heap profiles report
// cumulative alloc_space since process start, so each operator's total is
// differenced against the previous snapshot and only growth is booked.
func (a *Attribution) AddHeap(p *Profile) {
	idx := p.ValueIndex("alloc_space")
	if idx < 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.heapSnaps++
	cur := make(map[string]int64)
	for i := range p.Samples {
		s := &p.Samples[i]
		if idx >= len(s.Values) || s.Values[idx] <= 0 {
			continue
		}
		op := a.attributeStackLocked(p, s)
		if op == "" {
			continue
		}
		cur[op] += s.Values[idx]
	}
	for op, c := range cur {
		if d := c - a.lastHeap[op]; d > 0 {
			a.opAlloc[op] += d
		}
		a.lastHeap[op] = c
	}
}

// attributeStackLocked maps a heap sample's stack to an operator: walking
// leaf-first, the first ftpde function the CPU join knows about wins, and the
// sample is credited to that function's dominant operator.
func (a *Attribution) attributeStackLocked(p *Profile, s *Sample) string {
	for _, fn := range p.StackFuncs(s) {
		fm := a.funcOp[fn]
		if len(fm) == 0 {
			continue
		}
		var best string
		var bestNs int64
		for op, ns := range fm {
			if ns > bestNs || (ns == bestNs && op < best) {
				best, bestNs = op, ns
			}
		}
		return best
	}
	return ""
}

// OpCPUSeconds returns per-operator CPU seconds accumulated across all
// queries.
func (a *Attribution) OpCPUSeconds() map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return nanosToSeconds(a.opCPU)
}

// TenantCPUSeconds returns per-tenant CPU seconds.
func (a *Attribution) TenantCPUSeconds() map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return nanosToSeconds(a.tenantCPU)
}

// LastWindowOpCPUSeconds returns per-operator CPU seconds of the most recent
// window only — the forensics capture's "top-CPU operators at death".
func (a *Attribution) LastWindowOpCPUSeconds() map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return nanosToSeconds(a.lastWin)
}

// TakeQueryCPUSeconds returns the per-operator CPU booked so far for one
// query id and forgets the query, bounding the table. Missing queries return
// an empty map.
func (a *Attribution) TakeQueryCPUSeconds(query string) map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := nanosToSeconds(a.queryCPU[query])
	delete(a.queryCPU, query)
	return out
}

// OpAllocBytes returns per-operator allocation bytes attributed through the
// function-map heap join.
func (a *Attribution) OpAllocBytes() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.opAlloc))
	for k, v := range a.opAlloc {
		out[k] = v
	}
	return out
}

// Stats is the attribution's self-accounting, exported as ftpde_prof_*.
type Stats struct {
	Samples        int64   // CPU samples decoded
	Joined         int64   // samples carrying an op or stage label
	CPUSeconds     float64 // total profiled CPU
	JoinedSeconds  float64 // CPU attributed to a labeled op/stage
	HeapSnapshots  int64
	DroppedQueries int64
}

// JoinFrac is the CPU-weighted fraction of samples that joined to an
// operator label (1.0 when nothing has been profiled yet).
func (s Stats) JoinFrac() float64 {
	if s.CPUSeconds <= 0 {
		return 1.0
	}
	return s.JoinedSeconds / s.CPUSeconds
}

// Stats returns a snapshot of the attribution counters.
func (a *Attribution) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Samples:        a.samples,
		Joined:         a.joined,
		CPUSeconds:     float64(a.cpuNanos) / 1e9,
		JoinedSeconds:  float64(a.joinedNanos) / 1e9,
		HeapSnapshots:  a.heapSnaps,
		DroppedQueries: a.droppedQ,
	}
}

func nanosToSeconds(m map[string]int64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = float64(v) / 1e9
	}
	return out
}
