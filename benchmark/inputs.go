package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"ftpde/internal/service"
)

// Every random choice the harness makes comes from -seed through rngFor: one
// independent stream per purpose, so that lengthening one stream (more
// requests) does not shift another (failure tuples). The program under test
// sees only the generated inputs.
func rngFor(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, stream)))
}

func streamSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

const (
	nodes = 4 // cluster size = partition count, every workload

	// serve_mixed traffic shape.
	freshShare  = 0.30 // requests that carry literals no earlier request had
	maxRows     = 100
	tenantCount = 4
	openRate    = 10.0 // open-loop session arrivals per second
)

// mixBlock is one session: what a tenant sends back to back over one
// connection, Q1:Q3:Q5 = 2:2:1 (0, 1, 2 index service.TPCHQueries) in a
// seeded order. The session is serve_mixed's operation because single
// replies are not one population: sorted by latency they fall into a cluster
// per template, a decade apart, smeared by whatever else was in flight, and
// the median of that lies on a slope where a few requests more on one side
// move it by half its value (measured: 40th, 50th and 60th percentile at 7,
// 12 and 17 ms). Every session has the same five templates, so session
// latencies are one population and their percentiles are well conditioned;
// each reply still weighs in with the time it took.
var mixBlock = []int{0, 0, 1, 1, 2}

var sessionSize = len(mixBlock)

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

// queryText instantiates template kind (0=Q1, 1=Q3, 2=Q5 of
// service.TPCHQueries) with seeded literals. Dates stay within 100 days of
// the middle of the generator's [0, 2406) day range: every instance is a
// different text with a different result, but they select within a few
// percent of the same share of rows, so two seeds' runs cost about the same.
func queryText(kind int, rng *rand.Rand) string {
	tmpl := service.TPCHQueries()[kind].Text
	date := fmt.Sprint(1100 + rng.Intn(200))
	var old, repl string
	switch kind {
	case 0:
		old, repl = "l_shipdate <= 1200", "l_shipdate <= "+date
	case 1:
		old, repl = "'BUILDING' AND o_orderdate < 1200", "'"+segments[rng.Intn(len(segments))]+"' AND o_orderdate < "+date
	default:
		old, repl = "GROUP BY n_name", "WHERE o_orderdate < "+date+"\n\t\tGROUP BY n_name"
	}
	if !strings.Contains(tmpl, old) {
		panic(fmt.Sprintf("benchmark: template %s of service.TPCHQueries no longer contains %q", service.TPCHQueries()[kind].Name, old))
	}
	return strings.Replace(tmpl, old, repl, 1)
}

// repeatedTexts are the six texts most requests repeat: the three templates
// as written plus one seeded variant of each.
func repeatedTexts(seed int64) [3][2]string {
	rng := rngFor(seed, "repeated-texts")
	var out [3][2]string
	for k := range out {
		out[k] = [2]string{service.TPCHQueries()[k].Text, queryText(k, rng)}
	}
	return out
}

// requestStream is the serve_mixed traffic: n requests, session after
// session, each one of the repeated texts or, with probability freshShare, a
// text with fresh literals. A plan or result cache keyed by text can
// therefore hit on at most 70%.
func requestStream(seed int64, stream string, n int) []service.Request {
	repeated := repeatedTexts(seed)
	rng := rngFor(seed, stream)
	out := make([]service.Request, n)
	var block []int
	for i := range out {
		if i%len(mixBlock) == 0 {
			block = append(block[:0], mixBlock...)
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[i%len(mixBlock)]
		text := repeated[kind][rng.Intn(2)]
		if rng.Float64() < freshShare {
			text = queryText(kind, rng)
		}
		out[i] = request(stream, i, rng.Intn(tenantCount), text)
	}
	return out
}

func request(stream string, i, tenant int, text string) service.Request {
	return service.Request{ID: fmt.Sprintf("%s-%d", stream, i), Tenant: fmt.Sprintf("t%d", tenant), Query: text, MaxRows: maxRows}
}

// arrivals draws the open loop's due times (seconds from the phase start),
// one session each: one per slot of 1/openRate seconds, at a seeded offset
// within the first half of its slot. The schedule ignores replies, as an open
// loop must, but two sessions are never due less than half a slot apart. With
// offsets anywhere in the slot one session in seventeen was due while its
// predecessor was still being served, which put the 95th percentile on the
// edge between the sessions that had the server to themselves and those that
// shared it (spread across seeds 18%); with Poisson arrivals the median's
// spread was 28%. A session still waits when an earlier one stalls.
func arrivals(seed int64, horizon float64) []float64 {
	rng := rngFor(seed, "arrivals")
	var out []float64
	for slot := 0.0; (slot+1)/openRate <= horizon; slot++ {
		out = append(out, (slot+0.5*rng.Float64())/openRate)
	}
	return out
}

// kill is one scripted node failure: the node holding Part dies while it
// computes Op for the first time.
type kill struct {
	Op   string `json:"op"`
	Part int    `json:"part"`
}

// failureSchedules draws one two-kill schedule per round for a plan with the
// given operator names. The first kill walks a seeded permutation of the
// operators, so every run covers early and late operators alike whatever the
// seed (recovery cost depends mostly on how late the kill lands); the second
// is drawn freely.
func failureSchedules(seed int64, query string, ops []string, rounds int) [][2]kill {
	rng := rngFor(seed, "failures/"+query)
	perm := rng.Perm(len(ops))
	out := make([][2]kill, rounds)
	for r := range out {
		first := perm[r%len(ops)]
		second := rng.Intn(len(ops) - 1)
		if second >= first {
			second++
		}
		out[r] = [2]kill{
			{Op: ops[first], Part: rng.Intn(nodes)},
			{Op: ops[second], Part: rng.Intn(nodes)},
		}
	}
	return out
}
