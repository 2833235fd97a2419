package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers per family, cumulative `le` buckets plus
// `_sum`/`_count` for histograms, escaped label values. Output ordering
// follows the deterministic snapshot, so scrapes are diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.Snapshot().Families {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Series {
			writeSeries(&b, f, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ContentType is the HTTP Content-Type of the exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

func writeSeries(b *strings.Builder, f FamilySnapshot, s SeriesSnapshot) {
	if f.Kind != KindHistogram || s.Hist == nil {
		b.WriteString(f.Name)
		writeLabels(b, f.Labels, s.LabelValues, "", "")
		b.WriteByte(' ')
		b.WriteString(formatFloat(s.Value))
		b.WriteByte('\n')
		return
	}
	h := s.Hist
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		b.WriteString(f.Name)
		b.WriteString("_bucket")
		writeLabels(b, f.Labels, s.LabelValues, "le", formatFloat(bound))
		fmt.Fprintf(b, " %d\n", cum)
	}
	b.WriteString(f.Name)
	b.WriteString("_bucket")
	writeLabels(b, f.Labels, s.LabelValues, "le", "+Inf")
	fmt.Fprintf(b, " %d\n", h.Count)
	b.WriteString(f.Name)
	b.WriteString("_sum")
	writeLabels(b, f.Labels, s.LabelValues, "", "")
	fmt.Fprintf(b, " %s\n", formatFloat(h.Sum))
	b.WriteString(f.Name)
	b.WriteString("_count")
	writeLabels(b, f.Labels, s.LabelValues, "", "")
	fmt.Fprintf(b, " %d\n", h.Count)
}

// writeLabels renders {k="v",...}; extraKey/extraVal append the histogram
// bucket's `le` pair. Nothing is written when there are no labels at all.
func writeLabels(b *strings.Builder, names, values []string, extraKey, extraVal string) {
	if len(names) == 0 && extraKey == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
