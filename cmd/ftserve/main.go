// Command ftserve runs the multi-tenant query service: a TPC-H catalog, the
// sql -> core -> cost fault-tolerance planning pipeline, and many concurrent
// stage-DAG executions on one shared bounded worker pool.
//
// Usage:
//
//	ftserve -addr :7070 -http :7071 -sf 0.01 -nodes 4
//	ftserve -addr :7070 -mtbf 0.01         # serve under failures drawn from a failure trace
//	ftserve -addr :7070 -tenant-rate 10 -tenant-concurrency 2
//	ftserve -addr :7070 -forensics-dir /tmp/forensics -metrics-out /tmp/met.json
//
// The -addr listener speaks the length-prefixed JSON protocol (see
// internal/service); the -http listener serves POST /query, /healthz,
// /metrics, /debug/queries and the full /debug vocabulary. SIGINT/SIGTERM
// drains gracefully: in-flight queries finish (including failure recovery),
// queued and new requests are shed with typed rejects; -metrics-out then
// writes a deterministic registry snapshot before exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ftpde/internal/engine"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":7070", "TCP address for the framed JSON protocol")
		httpA    = flag.String("http", "", "HTTP address for /query, /healthz, /metrics, /debug/queries and /debug/* (empty disables)")
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor for the served catalog")
		nodes    = flag.Int("nodes", 4, "cluster size / partition count")
		seed     = flag.Int64("seed", 7, "data generation seed")
		workers  = flag.Int("workers", 0, "shared worker pool size (default GOMAXPROCS)")
		maxConc  = flag.Int("max-concurrent", 0, "max queries executing simultaneously (default 2*workers)")
		queue    = flag.Int("queue", 0, "admission queue depth before load shedding (default 2*max-concurrent)")
		tRate    = flag.Float64("tenant-rate", 0, "per-tenant sustained queries/second (0 = unlimited)")
		tBurst   = flag.Float64("tenant-burst", 0, "per-tenant burst budget (default tenant-rate)")
		tConc    = flag.Int("tenant-concurrency", 0, "per-tenant in-flight query cap (0 = unlimited)")
		mtbf     = flag.Float64("mtbf", 0, "per-node MTBF in model seconds of the failure trace each query is simulated against; the task attempts it kills are injected, replayably (0 = no injection)")
		mSeed    = flag.Int64("fail-seed", 1, "failure trace seed, combined with each query's ID")
		failSpec = flag.String("fail", "", "deterministic injected failures, comma-separated op/partition/attempt triples (overrides -mtbf)")
		cMTBF    = flag.Float64("model-mtbf", 0, "cost-model per-node MTBF in seconds (default one hour)")
		cMTTR    = flag.Float64("model-mttr", 0, "cost-model MTTR in seconds (default 1)")
		coarse   = flag.Bool("coarse", false, "force the coarse restart recovery scheme (default fine-grained)")
		maxRst   = flag.Int("max-restarts", 0, "coarse-restart attempts before a query aborts with a forensics bundle (0 = runtime default)")
		forDir   = flag.String("forensics-dir", "", "write failure forensics bundles to this directory (empty disables)")
		forMax   = flag.Int("forensics-max", 0, "bounded forensics ring size: oldest bundles beyond this are pruned (default 32)")
		metOut   = flag.String("metrics-out", "", "write the final metrics registry snapshot to this file as JSON after graceful drain")
	)
	flag.Parse()

	cfg := service.Config{
		SF: *sf, Nodes: *nodes, Seed: *seed,
		Workers: *workers, MaxConcurrent: *maxConc, QueueDepth: *queue,
		TenantRate: *tRate, TenantBurst: *tBurst, TenantConcurrency: *tConc,
		InjectMTBF: *mtbf, InjectSeed: *mSeed,
		ModelMTBF: *cMTBF, ModelMTTR: *cMTTR,
		Coarse: *coarse, MaxRestarts: *maxRst,
		ForensicsDir: *forDir, ForensicsMax: *forMax,
	}
	if *failSpec != "" {
		inj, err := engine.ParseFailures(*failSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Injector = inj
	}
	srv, err := service.New(cfg)
	if err != nil {
		fatal(err)
	}

	tcpAddr, err := srv.StartTCP(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ftserve: protocol on %s (sf=%g nodes=%d workers=%d)\n", tcpAddr, *sf, *nodes, srv.Pool().Capacity())
	if *httpA != "" {
		ha, err := srv.StartHTTP(*httpA)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ftserve: http on %s (/query /healthz /metrics /debug)\n", ha)
	}
	if *failSpec != "" {
		fmt.Printf("ftserve: injecting scripted failures %q\n", *failSpec)
	} else if *mtbf > 0 {
		fmt.Printf("ftserve: injecting failures from a trace with per-node MTBF %g model s\n", *mtbf)
	}
	if *forDir != "" {
		fmt.Printf("ftserve: forensics bundles in %s\n", *forDir)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("ftserve: draining (in-flight queries finish, new requests shed)")
	srv.Close()
	if *metOut != "" {
		if err := writeMetricsSnapshot(*metOut, srv.Registry()); err != nil {
			fatal(err)
		}
		fmt.Printf("ftserve: wrote metrics snapshot to %s\n", *metOut)
	}
	fmt.Println("ftserve: drained")
}

// writeMetricsSnapshot persists the registry snapshot as indented JSON — the
// deterministic post-drain artifact CI and operators diff across runs.
func writeMetricsSnapshot(path string, reg *metrics.Registry) error {
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftserve:", err)
	os.Exit(1)
}
