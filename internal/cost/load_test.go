package cost

import (
	"testing"

	"ftpde/internal/failure"
)

func TestLoadStretch(t *testing.T) {
	cases := []struct {
		util, want float64
	}{
		{-1, 1},    // negative utilization is treated as idle
		{0, 1},     // idle pool: paper-faithful costs
		{0.5, 2},   // half busy: recovery takes twice as long
		{0.9, 10},  // hot: 10x
		{0.95, 20}, // clamp boundary
		{1, 20},    // saturated: clamped
		{3, 20},    // oversubscribed (waiters beyond capacity): clamped
	}
	for _, c := range cases {
		if got := LoadStretch(c.util); !approxEqEps(got, c.want, 1e-9) {
			t.Errorf("LoadStretch(%g) = %g, want %g", c.util, got, c.want)
		}
	}
}

func testModel() Model {
	return Model{MTBF: 100, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4}
}

func TestUnderLoadScalesRecoveryOnly(t *testing.T) {
	m := testModel()
	idle := m.OperatorCost(10)
	hot := m.UnderLoad(0.9).OperatorCost(10)

	// Failure statistics are load-independent: load does not make nodes
	// fail more often.
	if !approxEqEps(hot.Gamma, idle.Gamma, 1e-12) {
		t.Errorf("gamma changed under load: %g vs %g", hot.Gamma, idle.Gamma)
	}
	if !approxEqEps(hot.Attempts, idle.Attempts, 1e-12) {
		t.Errorf("attempts changed under load: %g vs %g", hot.Attempts, idle.Attempts)
	}
	if !approxEqEps(hot.Total, idle.Total, 1e-12) {
		t.Errorf("clean runtime changed under load: %g vs %g", hot.Total, idle.Total)
	}
	// Recovery prices stretch by exactly LoadStretch(0.9) = 10.
	if !approxEqEps(hot.Wasted, 10*idle.Wasted, 1e-9) {
		t.Errorf("wasted = %g, want 10x idle %g", hot.Wasted, idle.Wasted)
	}
	wantRuntime := idle.Total + idle.Attempts*10*idle.Wasted + idle.Attempts*10*m.MTTR
	if !approxEqEps(hot.Runtime, wantRuntime, 1e-9) {
		t.Errorf("runtime = %g, want %g", hot.Runtime, wantRuntime)
	}
}

func TestUnderLoadIdleIsIdentity(t *testing.T) {
	m := testModel()
	idle := m.OperatorCost(10)
	alsoIdle := m.UnderLoad(0).OperatorCost(10)
	if !approxEqEps(idle.Runtime, alsoIdle.Runtime, 1e-12) {
		t.Errorf("UnderLoad(0) changed runtime: %g vs %g", alsoIdle.Runtime, idle.Runtime)
	}
}

func TestUnderLoadValidate(t *testing.T) {
	m := testModel().UnderLoad(0.9)
	if err := m.Validate(); err != nil {
		t.Errorf("UnderLoad model invalid: %v", err)
	}
	m.RecoveryStretch = -1
	if err := m.Validate(); err == nil {
		t.Error("negative RecoveryStretch passed Validate")
	}
}

func TestDefaultModelUnstretched(t *testing.T) {
	// The zero RecoveryStretch must be paper-faithful: DefaultModel costs
	// are unchanged by the field's introduction.
	m := DefaultModel(failure.Spec{MTBF: 100, MTTR: 1, Nodes: 4})
	oc := m.OperatorCost(10)
	want := oc.Total + oc.Attempts*oc.Wasted + oc.Attempts*m.MTTR
	if !approxEqEps(oc.Runtime, want, 1e-12) {
		t.Errorf("zero-stretch runtime = %g, want %g", oc.Runtime, want)
	}
}
