// Package determin implements the ftlint analyzer that statically guards the
// determinism contract the recovery equivalence tests lean on (DESIGN.md
// §6–7): replaying a stage from a checkpoint must reproduce byte-identical
// output, so map iteration order must never reach encoded output without an
// intervening sort, and wall-clock or random values must never feed the cost
// model or the compute path. The checks are interprocedural: map-order taint
// and time/rand reachability come from function summaries, so a helper in
// another package cannot hide a violation.
package determin

import (
	"go/ast"
	"strings"

	"ftpde/internal/lint/analysis"
)

// Analyzer enforces deterministic replay: no map-order-dependent output, no
// wall clock or randomness in cost/core or engine compute paths.
var Analyzer = &analysis.Analyzer{
	Name: "determin",
	Doc: "map range order must not reach checkpoint encoding, plan " +
		"enumeration, metrics snapshots or query output without a sort; " +
		"time.Now and math/rand are forbidden in internal/cost, " +
		"internal/core and engine compute paths — replay would diverge " +
		"byte-for-byte otherwise",
	Run: run,
}

// orderScopes are the package-path fragments where map-iteration order
// reaching an encoder breaks byte-identical replay or stable output:
// checkpoint encoding (runtime, exec), plan enumeration (cost, plan), metric
// snapshots (obs), query output (engine, core, service).
var orderScopes = []string{
	"internal/cost", "internal/core", "internal/engine", "internal/obs",
	"internal/service", "internal/runtime", "internal/plan", "internal/exec",
}

// strictScopes are the packages where wall clock and randomness are banned
// outright: the cost model must price identical plans identically, and core
// checkpoint/recovery logic must replay deterministically.
var strictScopes = []string{"internal/cost", "internal/core"}

// computeRootNames are the kernel entry points whose transitive callees form
// the engine compute path; data computed there feeds checkpoints and query
// output, so it inherits the determinism requirement.
var computeRootNames = map[string]bool{
	"Compute": true, "ComputeBatch": true, "Process": true, "Flush": true,
}

func pathIn(path string, scopes []string) bool {
	for _, s := range scopes {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

// nondetLeaves are the stdlib sources of nondeterminism, keyed by FuncID.
func nondetLeaf(id analysis.FuncID) string {
	switch id {
	case "time.Now", "time.Since":
		return "wall clock"
	}
	if strings.HasPrefix(string(id), "math/rand.") || strings.HasPrefix(string(id), "math/rand/v2.") {
		return "math/rand"
	}
	return ""
}

func run(pass *analysis.Pass) error {
	sums := pass.Summaries
	if sums == nil {
		return nil
	}
	path := pass.Pkg.Path()

	// Rule 1: map-iteration-ordered data reaching an output sink.
	if pathIn(path, orderScopes) {
		for _, sum := range sums.All() {
			if sum.Pkg.Types != pass.Pkg || inTestFile(sum) {
				continue
			}
			for _, os := range sum.OrderSinks {
				pass.Reportf(os.Pos, "map-iteration-ordered data reaches %s without an intervening sort: output byte-layout would vary between runs", os.Sink)
			}
		}
	}

	strict := pathIn(path, strictScopes)
	computeReach := computeReachable(sums)

	// Rules 2 and 3 share the taint closure: a function is tainted when it
	// (transitively) reaches a nondeterminism leaf. Propagation stops at
	// internal/obs — recording wall time is the tracer's job, and metric
	// timing never feeds computed data.
	tainted := sums.Tainted(
		func(id analysis.FuncID, _ *analysis.FuncSummary) bool { return nondetLeaf(id) != "" },
		func(_ analysis.FuncID, sum *analysis.FuncSummary) bool {
			return sum == nil || !strings.Contains(sum.Pkg.Path, "internal/obs")
		},
	)

	for _, sum := range sums.All() {
		if sum.Pkg.Types != pass.Pkg || inTestFile(sum) {
			continue
		}
		inCompute := computeReach[sum.ID]
		if !strict && !inCompute {
			continue
		}
		where := "deterministic package " + trimModule(path)
		if !strict {
			where = "engine compute path (reachable from a kernel Compute/Process entry point)"
		}
		// Direct nondeterminism sites.
		for _, pos := range sum.TimeSites {
			pass.Reportf(pos, "wall clock read in %s: replay would diverge", where)
		}
		for _, pos := range sum.RandSites {
			pass.Reportf(pos, "math/rand call in %s: replay would diverge", where)
		}
		// Calls into tainted helpers (any package, through summaries).
		ast.Inspect(sum.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.CalleeOf(sum.Pkg.TypesInfo, call)
			if callee == nil {
				return true
			}
			id := analysis.IDOf(callee)
			if src := nondetLeaf(id); src != "" {
				return true // already reported as a direct site
			}
			// Calls into obs are sanctioned: tracer timing never feeds
			// computed data (the same exemption the taint closure applies).
			if gsum := sums.ByID(id); gsum != nil && strings.Contains(gsum.Pkg.Path, "internal/obs") {
				return true
			}
			if tainted[id] {
				pass.Reportf(call.Pos(), "call to %s reaches time.Now/math/rand in %s: replay would diverge", callee.Name(), where)
			}
			return true
		})
	}
	return nil
}

// computeReachable returns every function reachable from an engine kernel
// entry point (a method named Compute/ComputeBatch/Process/Flush declared in
// an engine package), excluding obs tracing helpers.
func computeReachable(sums *analysis.Summaries) map[analysis.FuncID]bool {
	var roots []analysis.FuncID
	for _, sum := range sums.All() {
		if !strings.Contains(sum.Pkg.Path, "internal/engine") {
			continue
		}
		if sum.Decl.Recv == nil || !computeRootNames[sum.Decl.Name.Name] {
			continue
		}
		roots = append(roots, sum.ID)
	}
	reach := sums.ForwardReachable(roots)
	for id := range reach {
		if sum := sums.ByID(id); sum != nil && strings.Contains(sum.Pkg.Path, "internal/obs") {
			delete(reach, id)
		}
	}
	return reach
}

func inTestFile(sum *analysis.FuncSummary) bool {
	return strings.HasSuffix(sum.Pkg.Fset.Position(sum.Decl.Pos()).Filename, "_test.go")
}

func trimModule(path string) string {
	if i := strings.Index(path, "internal/"); i >= 0 {
		return path[i:]
	}
	return path
}
