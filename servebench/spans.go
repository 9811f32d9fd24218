package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share Trace; Parent indexes the same log (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
}

// spanLog is one goroutine's spans, kept in memory until the run ends.
// A nil *spanLog records nothing, so untraced runs pay one nil check
// per span.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLogs(n int, origin time.Time) []*spanLog {
	logs := make([]*spanLog, n)
	for i := range logs {
		logs[i] = &spanLog{origin: origin}
	}
	return logs
}

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, parent, trace int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Trace: trace, Parent: parent,
		Start: int64(time.Since(l.origin))})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].End = int64(time.Since(l.origin))
}

// layer is a span name's layer: the part before the first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each layer's self time over all logs: a span's
// duration minus the part of it its children cover.
func selfTimes(logs []*spanLog) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, l := range logs {
		children := make([][]span, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		for i, s := range l.spans {
			out[layer(s.Name)] += time.Duration(s.End - s.Start - covered(s, children[i]))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeSpans saves every log as one JSON document, log by log.
func writeSpans(path string, logs []*spanLog) error {
	all := make([][]span, len(logs))
	for i, l := range logs {
		all[i] = l.spans
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
