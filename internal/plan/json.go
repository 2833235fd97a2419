package plan

import (
	"encoding/json"
	"fmt"
)

// jsonPlan is the wire representation used by MarshalJSON/UnmarshalJSON and
// by cmd/ftplan's input format.
type jsonPlan struct {
	Operators []jsonOperator `json:"operators"`
	Edges     [][2]OpID      `json:"edges"`
}

type jsonOperator struct {
	ID          OpID    `json:"id"`
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	RunCost     float64 `json:"run_cost"`
	MatCost     float64 `json:"mat_cost"`
	Materialize bool    `json:"materialize,omitempty"`
	Bound       bool    `json:"bound,omitempty"`
	Rows        float64 `json:"rows,omitempty"`
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// MarshalJSON encodes the plan as {"operators": [...], "edges": [[from,to]]}.
func (p *Plan) MarshalJSON() ([]byte, error) {
	jp := jsonPlan{}
	for _, op := range p.Operators() {
		jp.Operators = append(jp.Operators, jsonOperator{
			ID: op.ID, Name: op.Name, Kind: op.Kind.String(),
			RunCost: op.RunCost, MatCost: op.MatCost,
			Materialize: op.Materialize, Bound: op.Bound, Rows: op.Rows,
		})
	}
	for _, from := range p.OperatorIDs() {
		for _, to := range p.Outputs(from) {
			jp.Edges = append(jp.Edges, [2]OpID{from, to})
		}
	}
	return json.Marshal(jp)
}

// maxJSONID bounds the operator IDs UnmarshalJSON accepts: a plan is indexed
// by ID, so one stray huge ID would otherwise allocate its whole range.
const maxJSONID = 1 << 20

// UnmarshalJSON decodes a plan produced by MarshalJSON (or hand-written in
// the same format). Operator IDs in the input are preserved; they must lie
// in [1, 1<<20].
func (p *Plan) UnmarshalJSON(data []byte) error {
	var jp jsonPlan
	if err := json.Unmarshal(data, &jp); err != nil {
		return err
	}
	*p = *New()
	for _, jo := range jp.Operators {
		if jo.ID <= 0 || jo.ID > maxJSONID {
			return fmt.Errorf("plan: operator id must be in [1, %d], got %d", maxJSONID, jo.ID)
		}
		if p.Op(jo.ID) != nil {
			return fmt.Errorf("plan: duplicate operator id %d", jo.ID)
		}
		kind, ok := kindByName[jo.Kind]
		if !ok {
			return fmt.Errorf("plan: unknown operator kind %q", jo.Kind)
		}
		p.place(&Operator{
			ID: jo.ID, Name: jo.Name, Kind: kind,
			RunCost: jo.RunCost, MatCost: jo.MatCost,
			Materialize: jo.Materialize, Bound: jo.Bound, Rows: jo.Rows,
		})
		if jo.ID >= p.nextID {
			p.nextID = jo.ID + 1
		}
	}
	for _, e := range jp.Edges {
		if err := p.Connect(e[0], e[1]); err != nil {
			return err
		}
	}
	return p.Validate()
}
