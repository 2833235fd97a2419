package main

import (
	"fmt"
	"time"

	"ftpde/internal/engine"
)

// scanAll materializes a table's partitions as the committed batch result a
// downstream kernel reads.
func scanAll(t *engine.Table) (*engine.BatchResult, error) {
	scan := engine.NewScan("probe-scan-"+t.Name, t, nil, nil)
	out := engine.NewBatchResult(scan.OutSchema(), nodes)
	for p := range out.Parts {
		b, err := scan.ComputeBatch(p, nil)
		if err != nil {
			return nil, err
		}
		out.Parts[p] = b
	}
	return out, nil
}

// kernelProbes times one ComputeBatch pass (all output partitions) per
// engine kernel on lineitem and orders and reports nanoseconds per input
// row. The budget is split evenly; every kernel gets at least three passes.
func kernelProbes(cat *engine.Catalog, rec *recorder, seconds float64) (map[string]measured, error) {
	li, err := cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	ord, err := cat.Table("orders")
	if err != nil {
		return nil, err
	}
	lineitem, err := scanAll(li)
	if err != nil {
		return nil, err
	}
	orders, err := scanAll(ord)
	if err != nil {
		return nil, err
	}
	ls, os := li.Schema, ord.Schema
	src := engine.NewScan("probe-src", li, nil, nil) // schema carrier for the operators below
	osrc := engine.NewScan("probe-osrc", ord, nil, nil)
	revenue := engine.Arith{Op: engine.Mul, L: engine.Col(ls.MustCol("l_extendedprice")),
		R: engine.Arith{Op: engine.Sub, L: engine.Const{V: 1.0}, R: engine.Col(ls.MustCol("l_discount"))}}

	probes := []struct {
		metric string
		op     engine.BatchOperator
		inputs []*engine.BatchResult
		rows   int
	}{
		{"engine.scan_filter_ns_row", engine.NewScan("probe-filter", li,
			engine.Cmp{Op: engine.LE, L: engine.Col(ls.MustCol("l_shipdate")), R: engine.Const{V: int64(1200)}}, nil),
			nil, li.LogicalRows()},
		{"engine.project_ns_row", engine.NewProject("probe-project", src,
			[]engine.Expr{engine.Col(ls.MustCol("l_orderkey")), revenue},
			engine.Schema{{Name: "orderkey", Type: engine.TypeInt}, {Name: "revenue", Type: engine.TypeFloat}}),
			[]*engine.BatchResult{lineitem}, li.LogicalRows()},
		{"engine.hashagg_ns_row", engine.NewHashAggregate("probe-agg", src,
			[]int{ls.MustCol("l_returnflag"), ls.MustCol("l_linestatus")},
			[]engine.AggSpec{{Kind: engine.AggSum, Col: ls.MustCol("l_quantity")}, {Kind: engine.AggCount}}, true,
			engine.Schema{{Name: "flag", Type: engine.TypeString}, {Name: "status", Type: engine.TypeString},
				{Name: "qty", Type: engine.TypeFloat}, {Name: "n", Type: engine.TypeInt}}),
			[]*engine.BatchResult{lineitem}, li.LogicalRows()},
		{"engine.hashjoin_ns_row", engine.NewHashJoin("probe-join", osrc, src, os.MustCol("o_orderkey"), ls.MustCol("l_orderkey")),
			[]*engine.BatchResult{orders, lineitem}, li.LogicalRows() + ord.LogicalRows()},
		{"engine.exchange_ns_row", engine.NewExchange("probe-exchange", src, ls.MustCol("l_suppkey")),
			[]*engine.BatchResult{lineitem}, li.LogicalRows()},
		{"engine.sort_ns_row", engine.NewSort("probe-sort", osrc, os.MustCol("o_orderdate"), true),
			[]*engine.BatchResult{orders}, ord.LogicalRows()},
	}
	out := map[string]measured{}
	for i, p := range probes {
		until := deadline(seconds / float64(len(probes)))
		var nsPerRow []float64
		for pass := 0; pass < 3 || time.Now().Before(until); pass++ {
			var err error
			d := rec.timed(p.op.Name(), 0, i, func() {
				for part := 0; part < nodes && err == nil; part++ {
					_, err = p.op.ComputeBatch(part, p.inputs)
				}
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.metric, err)
			}
			nsPerRow = append(nsPerRow, float64(d.Nanoseconds())/float64(p.rows))
		}
		out[p.metric] = medianOf(nsPerRow, "ns")
	}
	return out, nil
}
