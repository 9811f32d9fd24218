package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

const scrapeBefore = `# HELP chainserve_http_request_seconds Request latency.
# TYPE chainserve_http_request_seconds histogram
chainserve_http_request_seconds_bucket{route="plan",le="0.001"} 3
chainserve_http_request_seconds_bucket{route="plan",le="+Inf"} 4
chainserve_http_request_seconds_sum{route="plan"} 0.25
chainserve_http_request_seconds_count{route="plan"} 4
chainserve_http_request_seconds_sum{route="job_create"} 1
chainserve_http_request_seconds_count{route="job_create"} 2
# TYPE chainckpt_jobstore_append_seconds histogram
chainckpt_jobstore_append_seconds_sum 0.5
chainckpt_jobstore_append_seconds_count 10
# TYPE chainckpt_admission_admitted_total counter
chainckpt_admission_admitted_total{class="batch"} 2
chainckpt_admission_admitted_total{class="interactive"} 4
chainckpt_kernel_arena_bytes{cap="32"} 96888
`

const scrapeAfter = `chainserve_http_request_seconds_bucket{route="plan",le="0.001"} 13
chainserve_http_request_seconds_bucket{route="plan",le="+Inf"} 24
chainserve_http_request_seconds_sum{route="plan"} 1.25
chainserve_http_request_seconds_count{route="plan"} 24
chainserve_http_request_seconds_sum{route="job_create"} 1
chainserve_http_request_seconds_count{route="job_create"} 2
chainckpt_jobstore_append_seconds_sum 2.5
chainckpt_jobstore_append_seconds_count 30
chainckpt_admission_admitted_total{class="batch"} 2
chainckpt_admission_admitted_total{class="interactive"} 24
chainckpt_admission_shed_total{class="batch",reason="queue_full"} 3
chainckpt_kernel_arena_bytes{cap="32"} 96888
chainckpt_kernel_arena_bytes{cap="512"} 1.5e+07
`

func mustParse(t *testing.T, text string) series {
	t.Helper()
	s, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMetricsDeltaOfHistogramsAndLabelledSeries(t *testing.T) {
	d := delta(mustParse(t, scrapeBefore), mustParse(t, scrapeAfter))
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"chainserve_http_request_seconds_sum", []string{"route", "plan"}, 1},
		{"chainserve_http_request_seconds_count", []string{"route", "plan"}, 20},
		{"chainserve_http_request_seconds_count", []string{"route", "job_create"}, 0},
		{"chainserve_http_request_seconds_count", nil, 20},
		{"chainserve_http_request_seconds_bucket", []string{"route", "plan", "le", "0.001"}, 10},
		{"chainckpt_jobstore_append_seconds_sum", nil, 2},
		{"chainckpt_jobstore_append_seconds_count", nil, 20},
		{"chainckpt_admission_admitted_total", nil, 20},
		{"chainckpt_admission_admitted_total", []string{"class", "batch"}, 0},
		// A series absent before counts from zero.
		{"chainckpt_admission_shed_total", []string{"reason", "queue_full"}, 3},
		{"chainckpt_admission_shed_total", []string{"reason", "burn"}, 0},
	} {
		if got := d.sum(c.name, c.labels...); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("delta %s%v = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	after := mustParse(t, scrapeAfter)
	if got := after.sum("chainckpt_kernel_arena_bytes"); got != 96888+1.5e7 {
		t.Errorf("gauge sum %v", got)
	}
	// A label filter must not match a value that merely contains it.
	if got := after.sum("chainserve_http_request_seconds_count", "route", "pla"); got != 0 {
		t.Errorf("prefix label value matched: %v", got)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, text := range []string{"metric_without_value\n", "m{a=\"b\"} notanumber\n"} {
		if _, err := parseMetrics(strings.NewReader(text)); err == nil {
			t.Errorf("parsed %q", text)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	l := &spanLog{spans: []span{
		{Name: "client.op", Parent: -1, Start: 0, End: 10 * ms},
		{Name: "chainserve.job_create", Parent: 0, Start: 1 * ms, End: 3 * ms},
		{Name: "chainserve.job_events", Parent: 0, Start: 3 * ms, End: 9 * ms},
		{Name: "runtime.job", Parent: -1, Start: 20 * ms, End: 30 * ms},
		{Name: "runtime.NewStore", Parent: 3, Start: 20 * ms, End: 21 * ms},
		// Overlapping children are counted once.
		{Name: "jobstore.Append", Parent: 3, Start: 22 * ms, End: 26 * ms},
		{Name: "jobstore.Append", Parent: 3, Start: 24 * ms, End: 28 * ms},
	}}
	got := selfTimes([]*spanLog{l})
	want := map[string]time.Duration{
		"client":     2 * time.Millisecond,
		"chainserve": 8 * time.Millisecond,
		"runtime":    (10 - 1 - 6 + 1) * time.Millisecond,
		"jobstore":   8 * time.Millisecond,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}
