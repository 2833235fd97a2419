package metrics

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSeries is one parsed exposition line: name, label pairs, value.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
var promLabel = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)

// parsePrometheus is a strict parser of the text exposition format subset the
// writer emits. It fails the test on any malformed line, enforces that every
// series is preceded by a TYPE header for its family, and returns all series.
func parsePrometheus(t *testing.T, text string) []promSeries {
	t.Helper()
	typed := map[string]string{}
	var out []promSeries
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, parts[1])
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed series line %q", ln+1, line)
		}
		name := m[1]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := typed[strings.TrimSuffix(name, suffix)]; ok && f == "histogram" && strings.HasSuffix(name, suffix) {
				family = strings.TrimSuffix(name, suffix)
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("line %d: series %q has no TYPE header", ln+1, name)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil && m[3] != "+Inf" && m[3] != "-Inf" && m[3] != "NaN" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, m[3], err)
		}
		labels := map[string]string{}
		if m[2] != "" {
			for _, lm := range promLabel.FindAllStringSubmatch(m[2][1:len(m[2])-1], -1) {
				labels[lm[1]] = lm[2]
			}
		}
		out = append(out, promSeries{name: name, labels: labels, value: v})
	}
	return out
}

func seriesNamed(series []promSeries, name string) []promSeries {
	var out []promSeries
	for _, s := range series {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	ops, depth := 42.0, -1.5
	value(r, Desc{Name: "ftpde_ops_total", Help: "Operations with \"quotes\" and a \\ backslash.", Kind: KindCounter}, &ops)
	value(r, Desc{Name: "ftpde_depth", Help: "Queue depth.", Kind: KindGauge}, &depth)
	bounds := []float64{0.001, 0.01, 0.1}
	hs := map[string]*Histogram{"scan": NewHistogram(bounds), `we"ird`: NewHistogram(bounds)}
	histFamily(r, Desc{Name: "ftpde_lat_seconds", Help: "Latency.", Kind: KindHistogram, Unit: "seconds", Labels: []string{"stage"}}, hs)
	hs["scan"].Observe(0.0005)
	hs["scan"].Observe(0.05)
	hs[`we"ird`].Observe(0.2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series := parsePrometheus(t, b.String())

	if got := seriesNamed(series, "ftpde_ops_total"); len(got) != 1 || got[0].value != 42 {
		t.Errorf("counter series = %+v", got)
	}
	if got := seriesNamed(series, "ftpde_depth"); len(got) != 1 || got[0].value != -1.5 {
		t.Errorf("gauge series = %+v", got)
	}

	// Histogram: per stage, buckets must be cumulative and end at +Inf ==
	// _count, with a _sum series present.
	buckets := seriesNamed(series, "ftpde_lat_seconds_bucket")
	counts := seriesNamed(series, "ftpde_lat_seconds_count")
	sums := seriesNamed(series, "ftpde_lat_seconds_sum")
	if len(counts) != 2 || len(sums) != 2 {
		t.Fatalf("histogram _count/_sum arity: %d/%d, want 2/2", len(counts), len(sums))
	}
	perStage := map[string][]promSeries{}
	for _, s := range buckets {
		if _, ok := s.labels["le"]; !ok {
			t.Fatalf("bucket without le label: %+v", s)
		}
		perStage[s.labels["stage"]] = append(perStage[s.labels["stage"]], s)
	}
	if len(perStage) != 2 {
		t.Fatalf("bucket stages = %v, want 2", len(perStage))
	}
	for stage, bs := range perStage {
		if len(bs) != 4 { // 3 bounds + +Inf
			t.Fatalf("stage %q has %d buckets, want 4", stage, len(bs))
		}
		last := -1.0
		for _, s := range bs {
			if s.value < last {
				t.Errorf("stage %q buckets not cumulative: %v then %v", stage, last, s.value)
			}
			last = s.value
		}
		if bs[len(bs)-1].labels["le"] != "+Inf" {
			t.Errorf("stage %q last bucket le = %q, want +Inf", stage, bs[len(bs)-1].labels["le"])
		}
		var total float64
		for _, s := range counts {
			if s.labels["stage"] == stage {
				total = s.value
			}
		}
		if bs[len(bs)-1].value != total {
			t.Errorf("stage %q +Inf bucket %v != _count %v", stage, bs[len(bs)-1].value, total)
		}
	}
	// The escaped label value must round-trip through the parser.
	found := false
	for _, s := range counts {
		if s.labels["stage"] == `we\"ird` {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped label value not found in %+v", counts)
	}
}

func TestWritePrometheusCumulativeBucketValues(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{1, 10})
	histFamily(r, Desc{Name: "h", Help: "x", Kind: KindHistogram}, map[string]*Histogram{"": h})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(500)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series := parsePrometheus(t, b.String())
	want := map[string]float64{"1": 1, "10": 2, "+Inf": 3}
	for _, s := range seriesNamed(series, "h_bucket") {
		if s.value != want[s.labels["le"]] {
			t.Errorf("bucket le=%s value %v, want %v\n%s", s.labels["le"], s.value, want[s.labels["le"]], b.String())
		}
	}
	if got := seriesNamed(series, "h_sum"); len(got) != 1 || got[0].value != 505.5 {
		t.Errorf("sum = %+v", got)
	}
}

func TestDescribeTableListsEveryFamily(t *testing.T) {
	r := NewRegistry()
	value(r, Desc{Name: "a_total", Help: "Counts a.", Kind: KindCounter}, new(float64))
	histFamily(r, Desc{Name: "b_seconds", Help: "Times b.", Kind: KindHistogram, Unit: "seconds", Labels: []string{"x", "y"}}, nil)
	table := DescribeTable(r.Describe())
	for _, want := range []string{"a_total", "counter", "b_seconds", "histogram", "x,y", "Counts a.", "seconds"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	lines := strings.Count(table, "\n")
	if lines != 3 { // header + two families
		t.Errorf("table has %d lines, want 3:\n%s", lines, table)
	}
}

func ExampleRegistry_WritePrometheus() {
	r := NewRegistry()
	demo := 3.0
	r.MustRegisterFunc(Desc{Name: "demo_total", Help: "A demo counter.", Kind: KindCounter},
		func() []Sample { return []Sample{{Value: demo}} })
	var b strings.Builder
	r.WritePrometheus(&b)
	fmt.Print(b.String())
	// Output:
	// # HELP demo_total A demo counter.
	// # TYPE demo_total counter
	// demo_total 3
}
