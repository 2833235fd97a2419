// Quickstart: build a DAG-structured execution plan, run the cost-based
// fault-tolerance optimizer for a given cluster, inspect which intermediates
// it decides to checkpoint — then execute an analogous query for real on the
// runtime, with a live injected node failure.
package main

import (
	"context"
	"fmt"
	"log"

	"ftpde/internal/core"
	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/failure"
	"ftpde/internal/plan"
	"ftpde/internal/runtime"
)

func main() {
	// A small ETL-style pipeline: two scans feeding a join, an expensive
	// UDF, and a final aggregation. Costs are in seconds, accumulated over
	// partition-parallel execution; MatCost is the price of writing the
	// operator's output to fault-tolerant storage.
	p := plan.New()
	scanA := p.Add(plan.Operator{Name: "scan events", Kind: plan.KindScan, RunCost: 120, MatCost: 300, Bound: true})
	scanB := p.Add(plan.Operator{Name: "scan users", Kind: plan.KindScan, RunCost: 30, MatCost: 60, Bound: true})
	join := p.Add(plan.Operator{Name: "join on user_id", Kind: plan.KindHashJoin, RunCost: 200, MatCost: 80})
	udf := p.Add(plan.Operator{Name: "enrich UDF", Kind: plan.KindMapUDF, RunCost: 400, MatCost: 25})
	agg := p.Add(plan.Operator{Name: "sessionize", Kind: plan.KindAggregate, RunCost: 150, MatCost: 5, Bound: true})
	p.MustConnect(scanA, join)
	p.MustConnect(scanB, join)
	p.MustConnect(join, udf)
	p.MustConnect(udf, agg)

	// Optimize the same plan for three cluster profiles.
	for _, cluster := range []failure.Spec{
		{Nodes: 10, MTBF: failure.OneWeek, MTTR: 2},  // reliable on-prem rack
		{Nodes: 10, MTBF: failure.OneHour, MTTR: 2},  // flaky commodity nodes
		{Nodes: 100, MTBF: failure.OneHour, MTTR: 2}, // large spot-market fleet
	} {
		model := cost.DefaultModel(cluster)
		res, err := core.Optimize(p, core.Options{Model: model})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", cluster)
		fmt.Printf("  checkpoint operators: %s\n", res.Config)
		fmt.Printf("  estimated runtime under failures: %.1fs\n", res.Runtime)
		fmt.Printf("  probability a 900s query finishes with zero failures here: %.1f%%\n\n",
			100*failure.ProbClusterSuccess(900, cluster.MTBF, cluster.Nodes))
	}

	// Now run the executable analogue of that pipeline on real rows: scan
	// events, join against users, enrich, aggregate per user — with the join
	// checkpointed (the optimizer's choice on flaky clusters) and a node
	// failure injected live into the enrichment stage.
	const nodes = 4
	events := make([]engine.Row, 2000)
	for i := range events {
		events[i] = engine.Row{int64(i % 50), float64(i % 97)}
	}
	users := make([]engine.Row, 50)
	for i := range users {
		users[i] = engine.Row{int64(i), fmt.Sprintf("user-%02d", i)}
	}
	evT, err := engine.NewTable("events",
		engine.Schema{{Name: "user_id", Type: engine.TypeInt}, {Name: "amount", Type: engine.TypeFloat}},
		events, nodes, 0)
	if err != nil {
		log.Fatal(err)
	}
	usT, err := engine.NewTable("users",
		engine.Schema{{Name: "id", Type: engine.TypeInt}, {Name: "name", Type: engine.TypeString}},
		users, nodes, 0)
	if err != nil {
		log.Fatal(err)
	}
	scanEv := engine.NewScan("scan-events", evT, nil, nil)
	scanUs := engine.NewScan("scan-users", usT, nil, nil)
	j := engine.NewHashJoin("join-user", scanUs, scanEv, 0, 0)
	j.SetMaterialize(true) // the optimizer's pick: cheap to write, saves the UDF re-run
	enrich := engine.NewProject("enrich-udf", j,
		[]engine.Expr{engine.Col(3), engine.Arith{Op: engine.Mul, L: engine.Col(1), R: engine.Const{V: 1.07}}},
		engine.Schema{{Name: "name", Type: engine.TypeString}, {Name: "taxed", Type: engine.TypeFloat}})
	sess := engine.NewHashAggregate("sessionize", enrich, []int{0},
		[]engine.AggSpec{{Kind: engine.AggSum, Col: 1}, {Kind: engine.AggCount}},
		true,
		engine.Schema{{Name: "name", Type: engine.TypeString}, {Name: "total", Type: engine.TypeFloat}, {Name: "events", Type: engine.TypeInt}})

	inj := engine.NewScriptedFailures().Add("enrich-udf", 1, 0)
	m := &runtime.Metrics{}
	r, err := runtime.New(runtime.Config{Nodes: nodes, Injector: inj, BatchSize: 64, Metrics: m})
	if err != nil {
		log.Fatal(err)
	}
	result, rep, err := r.Execute(context.Background(), sess)
	if err != nil {
		log.Fatal(err)
	}
	defer fmt.Printf("\nruntime metrics: %s\n", m.Snapshot())

	rows := result.AllRows()
	fmt.Printf("live run: %d user sessions, %d failure(s) injected and recovered, %d partition(s) recomputed, %d checkpointed\n",
		len(rows), rep.Failures, rep.RecomputedPartitions, rep.MaterializedPartitions)
	for i, r := range rows {
		if i >= 3 {
			fmt.Printf("  ... (%d more)\n", len(rows)-3)
			break
		}
		fmt.Printf("  %v\n", r)
	}
}
