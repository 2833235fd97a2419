package main

import (
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/failure"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
	"ftpde/internal/tpch"
)

var tpchTables = []string{"region", "nation", "supplier", "customer", "orders", "lineitem", "part", "partsupp"}

// planParams and planModel are ftserve's plan-time defaults; the harness
// replays requests with the same constants so that its own planning calls
// cost what the server's do.
var (
	planParams = stats.CostParams{CPUPerRow: 1e-6, WritePerRow: 1.7e-5, Nodes: nodes}
	planModel  = cost.Model{MTBF: failure.OneHour, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: nodes}
)

// catalog is a generated TPC-H database with what set-up measured about it.
type catalog struct {
	cat   *engine.Catalog
	layer map[string]measured // tpch.* and, once collected, sql.collect_stats_ms
}

func catalogSeed(seed int64) int64 { return streamSeed(seed, "catalog") }

func generate(seed int64, sf float64) (*catalog, error) {
	start := time.Now()
	cat, err := tpch.Generate(sf, nodes, catalogSeed(seed))
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Seconds()
	rows := 0
	for _, name := range tpchTables {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		rows += t.LogicalRows()
	}
	return &catalog{cat: cat, layer: map[string]measured{
		"tpch.generate_s": exact(elapsed, "s"),
		"tpch.rows_total": exact(float64(rows), "count"),
	}}, nil
}

// collectStats gathers the planner's table statistics, which ftserve pays
// for on the first query that touches a table.
func (c *catalog) collectStats() (map[string]sql.TableStats, error) {
	start := time.Now()
	ts, err := sql.CollectStats(c.cat, tpchTables)
	if err != nil {
		return nil, err
	}
	c.layer["sql.collect_stats_ms"] = exact(time.Since(start).Seconds()*1e3, "ms")
	return ts, nil
}

// scannedRows is the number of base-table rows one execution of stmt scans.
func (c *catalog) scannedRows(stmt *sql.SelectStmt) (int, error) {
	rows := 0
	for _, tr := range stmt.From {
		t, err := c.cat.Table(tr.Table)
		if err != nil {
			return 0, err
		}
		rows += t.LogicalRows()
	}
	return rows, nil
}

// merge copies the set-up readings into a trace outcome.
func (c *catalog) merge(into map[string]measured) {
	for k, v := range c.layer {
		into[k] = v
	}
}
