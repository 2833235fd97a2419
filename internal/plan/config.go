package plan

import (
	"fmt"
	"sort"
	"strings"
)

// MatConfig is a materialization configuration M_P: for each operator ID it
// records whether the operator's output is materialized. Operators absent
// from the map keep their current flag.
type MatConfig map[OpID]bool

// Apply copies the configuration into the plan's operators. Bound operators
// may not be reconfigured; attempting to flip one returns an error.
func (p *Plan) Apply(cfg MatConfig) error {
	for id, m := range cfg {
		op := p.Op(id)
		if op == nil {
			return fmt.Errorf("plan: config references unknown operator %d", id)
		}
		if op.Bound && op.Materialize != m {
			return fmt.Errorf("plan: config flips bound operator %d (%s)", id, op.Name)
		}
		op.Materialize = m
	}
	return nil
}

// Config extracts the current materialization configuration of the plan.
func (p *Plan) Config() MatConfig {
	cfg := make(MatConfig, len(p.order))
	for _, id := range p.order {
		cfg[id] = p.ops[id].Materialize
	}
	return cfg
}

// ConfigFromMask builds a MatConfig for the given free operators where bit i
// of mask controls free[i]. This is the enumeration primitive: mask ranges
// over [0, 2^len(free)).
func ConfigFromMask(free []OpID, mask uint64) MatConfig {
	cfg := make(MatConfig, len(free))
	for i, id := range free {
		cfg[id] = mask&(1<<uint(i)) != 0
	}
	return cfg
}

// Mask is the inverse of ConfigFromMask for the given free-operator order.
func (cfg MatConfig) Mask(free []OpID) uint64 {
	var mask uint64
	for i, id := range free {
		if cfg[id] {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// Materialized returns the sorted IDs set to true.
func (cfg MatConfig) Materialized() []OpID {
	var out []OpID
	for id, m := range cfg {
		if m {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders e.g. "{3,5}" — the set of materialized operators.
func (cfg MatConfig) String() string {
	ids := cfg.Materialized()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// AllMat returns a configuration materializing every free operator (plus the
// existing flags for bound ones) — the Hadoop-style strategy.
func AllMat(p *Plan) MatConfig {
	cfg := p.Config()
	for _, id := range p.FreeOperators() {
		cfg[id] = true
	}
	return cfg
}

// NoMat returns a configuration materializing no free operator — the
// lineage/restart strategies' configuration.
func NoMat(p *Plan) MatConfig {
	cfg := p.Config()
	for _, id := range p.FreeOperators() {
		cfg[id] = false
	}
	return cfg
}
