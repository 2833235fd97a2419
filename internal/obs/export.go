package obs

import (
	"encoding/json"
	"io"
	"os"
	"time"
)

// timeline is the plain-JSON export envelope.
type timeline struct {
	// Epoch is the tracer's zero point (spans carry absolute times).
	Epoch time.Time `json:"epoch"`
	// Dropped counts spans lost to ring overflow.
	Dropped int64  `json:"dropped"`
	Spans   []Span `json:"spans"`
}

// WriteJSON writes the merged timeline as indented JSON.
func WriteJSON(w io.Writer, t *Tracer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(timeline{Epoch: t.Epoch(), Dropped: t.Dropped(), Spans: t.Snapshot()})
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "X" is a complete (duration) event, ph "i" an instant event;
// timestamps and durations are in microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// newChromeTrace converts spans into the Chrome trace_event envelope. Each
// partition gets its own track (tid = part+1; partition-less spans land on
// track 0), so failure, recovery and checkpoint events line up under the
// partition they belong to in chrome://tracing / Perfetto.
func newChromeTrace(epoch time.Time, spans []Span) chromeTrace {
	base := epoch
	if base.IsZero() && len(spans) > 0 {
		base = spans[0].Start
	}
	evs := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  string(sp.Kind),
			TS:   float64(sp.Start.Sub(base)) / float64(time.Microsecond),
			PID:  1,
			TID:  sp.Part + 1,
		}
		args := map[string]any{"kind": string(sp.Kind), "part": sp.Part, "attempt": sp.Attempt}
		if sp.Bytes > 0 {
			args["bytes"] = sp.Bytes
		}
		if sp.Rows > 0 {
			args["rows"] = sp.Rows
		}
		if sp.Err != "" {
			args["err"] = sp.Err
		}
		ev.Args = args
		if sp.Instant() {
			ev.Phase = "i"
			ev.Scope = "g"
		} else {
			ev.Phase = "X"
			ev.Dur = float64(sp.Duration()) / float64(time.Microsecond)
		}
		evs = append(evs, ev)
	}
	return chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"}
}

// WriteChromeTrace writes the tracer's merged timeline in Chrome trace_event
// format.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(newChromeTrace(t.Epoch(), t.Snapshot()))
}

// WriteChromeTraceSpans writes a span timeline to path in Chrome
// trace_event format: a tracer's (t.Epoch(), t.Snapshot()) or the
// simulator's synthetic one.
func WriteChromeTraceSpans(path string, epoch time.Time, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(newChromeTrace(epoch, spans)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
