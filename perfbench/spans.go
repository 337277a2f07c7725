package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer by
// the wrappers in layers.go. Spans of one request share its trace ID (the
// X-SHMT-Trace-Id the benchmark sends); a micro-batch round carries the IDs
// of every request it coalesced instead.
type span struct {
	name    string
	track   string // Perfetto thread the span is drawn on
	traceID string
	start   int64 // ns since the tracer's base
	end     int64
	ids     []string // core.round: trace IDs of the requests in the round
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory while on is set and writes them out at the
// end of the run. With on clear the wrappers cost one atomic load.
type tracer struct {
	on   atomic.Bool
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns how much of [lo,hi) the given intervals cover, counting
// overlapping intervals once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes computes, for every span named parent, its duration minus the
// time covered by spans named child that share its trace ID. The result is
// keyed by the parent span's index in spans.
func selfTimes(spans []span, parent, child string) map[int]int64 {
	kids := map[string][][2]int64{}
	for _, s := range spans {
		if s.name == child && s.traceID != "" {
			kids[s.traceID] = append(kids[s.traceID], [2]int64{s.start, s.end})
		}
	}
	out := map[int]int64{}
	for i, s := range spans {
		if s.name != parent {
			continue
		}
		out[i] = s.dur() - covered(s.start, s.end, kids[s.traceID])
	}
	return out
}

// writePerfetto writes the spans as Chrome trace-event JSON (loadable in
// ui.perfetto.dev), in microseconds. A request's spans overlap one another
// (a scatter's upstream calls run at once), so they are async slices keyed
// by the trace ID, one track per request; the rest are complete ("X")
// events on one thread per track. Args carry the trace ID and self time.
func writePerfetto(path string, spans []span, selfOf map[int]int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tids := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		ID   string         `json:"id,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for i, s := range spans {
		if s.traceID != "" {
			args := map[string]any{"trace_id": s.traceID, "track": s.track}
			if self, ok := selfOf[i]; ok {
				args["self_us"] = float64(self) / 1e3
			}
			events = append(events,
				event{Name: s.name, Cat: "request", Ph: "b", Ts: float64(s.start) / 1e3, Pid: 1, ID: s.traceID, Args: args},
				event{Name: s.name, Cat: "request", Ph: "e", Ts: float64(s.end) / 1e3, Pid: 1, ID: s.traceID})
			continue
		}
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.track}})
		}
		var args map[string]any
		if len(s.ids) > 0 {
			args = map[string]any{"trace_ids": s.ids}
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: tid, Args: args})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
