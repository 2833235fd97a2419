// SQL pipeline: the full loop from query text to fault-tolerant execution.
// A SQL query is parsed, statistics are collected from the data, the cost
// planner produces a plan DAG, the paper's optimizer picks the checkpoints
// for the cluster at hand — and the same query then runs on the execution
// runtime with an injected node failure, recovering to the exact
// failure-free result.
package main

import (
	"context"
	"fmt"
	"log"

	"ftpde/internal/core"
	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/failure"
	"ftpde/internal/runtime"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
	"ftpde/internal/tpch"
)

const query = `
	SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
	FROM nation
	JOIN supplier ON n_nationkey = s_nationkey
	JOIN lineitem ON s_suppkey = l_suppkey
	WHERE l_shipdate < 1500
	GROUP BY n_name
	ORDER BY revenue DESC
	LIMIT 5`

// execute runs root on a fresh runtime.
func execute(cfg runtime.Config, root engine.Operator) (*engine.PartitionedResult, *engine.Report) {
	r, err := runtime.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, rep, err := r.Execute(context.Background(), root)
	if err != nil {
		log.Fatal(err)
	}
	return res, rep
}

func main() {
	const nodes = 4
	cat, err := tpch.Generate(0.005, nodes, 7)
	if err != nil {
		log.Fatal(err)
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Statistics and cost plan.
	tstats, err := sql.CollectStats(cat, []string{"nation", "supplier", "lineitem"})
	if err != nil {
		log.Fatal(err)
	}
	costPlan, err := sql.CostPlan(stmt, cat, tstats,
		stats.CostParams{CPUPerRow: 1e-4, WritePerRow: 1.7e-3, Nodes: nodes})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The paper's optimizer decides the checkpoints.
	spec := failure.Spec{Nodes: nodes, MTBF: failure.OneHour, MTTR: 1}
	res, err := core.Optimize(costPlan, core.Options{Model: cost.DefaultModel(spec)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost plan: %d operators, %d free\n", costPlan.Len(), len(costPlan.FreeOperators()))
	fmt.Printf("cost-based checkpoints on %s: %s (estimated %.2fs under failures)\n\n",
		spec, res.Config, res.Runtime)

	// 3. Execute on the runtime: clean run, then a run with the first join
	// materialized and a node killed mid-join.
	clean, err := sql.Compile(stmt, cat)
	if err != nil {
		log.Fatal(err)
	}
	cleanRes, _ := execute(runtime.Config{Nodes: nodes}, clean.Root)

	failed, err := sql.Compile(stmt, cat)
	if err != nil {
		log.Fatal(err)
	}
	for _, j := range failed.Joins {
		j.SetMaterialize(true)
	}
	gotRes, rep := execute(runtime.Config{
		Nodes:    nodes,
		Injector: engine.NewScriptedFailures().Add("join-2", 1, 0),
	}, failed.Root)

	want, got := cleanRes.AllRows(), gotRes.AllRows()
	if len(want) != len(got) {
		log.Fatalf("recovery changed the result: %d vs %d rows", len(want), len(got))
	}
	fmt.Printf("injected 1 node failure; %d partitions recomputed, %d persisted; result verified\n\n",
		rep.RecomputedPartitions, rep.MaterializedPartitions)
	fmt.Println("top supplier nations by revenue:")
	for _, r := range got {
		fmt.Printf("  %-12s %14.2f\n", r[0], r[1])
	}
}
