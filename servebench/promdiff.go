package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// series maps each sample line of a Prometheus text exposition, keyed by
// its series as printed (`name{label="v",...}` or a bare name), to its
// value. A histogram contributes its _bucket, _sum and _count series.
type series map[string]float64

// parseMetrics reads a Prometheus 0.0.4 text exposition.
func parseMetrics(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the series; label values may hold spaces,
		// so split after the closing brace when there is one.
		split := strings.LastIndexByte(line, '}') + 1
		if split == 0 {
			split = strings.IndexByte(line, ' ')
		}
		if split <= 0 || split >= len(line) {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		fields := strings.Fields(line[split:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:split])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// delta returns after − before for every series of after; a series
// absent before counts from zero.
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the metric name whose labels include all of
// the given name=value pairs.
func (s series) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		n, lbl, _ := strings.Cut(k, "{")
		if n != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(labels); i += 2 {
			if !strings.Contains(","+lbl, ","+labels[i]+`="`+labels[i+1]+`"`) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// ratio is num/den, zero when den is zero (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
