// Engine demo: run TPC-H Q3 on the execution runtime with an
// injected mid-query node failure, and watch fine-grained recovery restore
// the lost partitions — from the materialization store where available, via
// lineage recomputation otherwise. The recovered result is verified against
// a failure-free run.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"ftpde/internal/engine"
	"ftpde/internal/runtime"
	"ftpde/internal/tpch"
)

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
	const (
		sf      = 0.005
		nodes   = 4
		segment = "BUILDING"
		dateMax = int64(1200)
	)
	cat, err := tpch.Generate(sf, nodes, 7)
	if err != nil {
		log.Fatal(err)
	}
	li, _ := cat.Table("lineitem")
	fmt.Printf("generated TPC-H @ SF%g: %d lineitem rows across %d nodes\n\n", sf, li.Rows(), nodes)

	// Reference run without failures.
	clean, err := tpch.EngineQ3(cat, segment, dateMax, false)
	if err != nil {
		log.Fatal(err)
	}
	cleanRes, _ := execute(runtime.Config{Nodes: nodes}, clean)

	// Same query with the joins materialized to the fault-tolerant store and
	// two injected failures: node 1 dies while joining lineitem, node 0 dies
	// during the final aggregation.
	q, err := tpch.EngineQ3(cat, segment, dateMax, true)
	if err != nil {
		log.Fatal(err)
	}
	res, rep := execute(runtime.Config{
		Nodes: nodes,
		Injector: engine.NewScriptedFailures().
			Add("q3-join-orders-lineitem", 1, 0).
			Add("q3-agg", 0, 0),
	}, q)

	fmt.Printf("injected failures handled:    %d\n", rep.Failures)
	fmt.Printf("partitions recomputed:        %d (lineage walk)\n", rep.RecomputedPartitions)
	fmt.Printf("partitions persisted to FT store: %d\n", rep.MaterializedPartitions)

	// Verify the recovered result matches the clean run.
	a, b := cleanRes.AllRows(), res.AllRows()
	if len(a) != len(b) {
		log.Fatalf("row count mismatch after recovery: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i][0] != b[i][0] || math.Abs(a[i][1].(float64)-b[i][1].(float64)) > 1e-6 {
			log.Fatalf("row %d differs after recovery", i)
		}
	}
	fmt.Printf("result verified: %d orders, identical to the failure-free run\n\n", len(b))

	fmt.Println("top orders by revenue:")
	for i, r := range b {
		if i == 5 {
			break
		}
		fmt.Printf("  order %6d  revenue %12.2f\n", r[0], r[1])
	}
}
