// Command servebench is the end-to-end and per-layer benchmark of
// chainserve. A run starts fresh chainserve processes with default
// flags on loopback, warms each one up, drives each through the same
// fixed, seeded list of requests with closed-loop clients, checks every
// response, and prints one JSON result line. See README.md.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	servebench -chainserve BIN -workdir DIR --workload plan-hot|plan-miss
//	           --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	chainserve string
	workdir    string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "plan-hot or plan-miss")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the generated requests are a function of it")
	flag.IntVar(&o.seconds, "seconds", 10, "sizes the fixed request list to about this many seconds of load")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&o.chainserve, "chainserve", "", "chainserve binary")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for in-process checkpoint stores and span dumps (emptied first)")
	flag.Parse()
	o.trace = trace == 1
	if err := bench(context.Background(), o); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(ctx context.Context, o options) error {
	if o.chainserve == "" || o.workdir == "" {
		return fmt.Errorf("-chainserve and -workdir are required")
	}
	// The list is sized so that all repetitions together take about
	// --seconds.
	w, err := generate(o.workload, o.seed, float64(o.seconds)/reps)
	if err != nil {
		return err
	}

	if err := os.RemoveAll(o.workdir); err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Join(o.workdir, "stores"))
	env, err := json.Marshal(describeEnv(o.workdir))
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", env)

	var out output
	if o.trace {
		out, err = tracedRun(ctx, o, w)
	} else {
		out, err = endToEndRun(ctx, o, w)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setup spawns a fresh server and runs the warm-up pass; its duration
// is one setup_s sample. plan-hot set-up then sends each batch once,
// checks that every response in it is a memo hit, and keeps its
// batchPrefix as the bytes every measured op of that batch must equal.
func setup(ctx context.Context, o options, w *workloadSpec) (*server, *loadgen, time.Duration, error) {
	start := time.Now()
	s, err := startServer(o.chainserve)
	if err != nil {
		return nil, nil, 0, err
	}
	g := newLoadgen(s, w)
	fail := func(err error) (*server, *loadgen, time.Duration, error) {
		g.close()
		s.stop()
		return nil, nil, 0, err
	}
	results := make([]result, len(w.warm))
	g.run(ctx, w.warm, results, w.clients, nil)
	if err := firstError(results); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	if w.batches != nil {
		g.keep = true
		results = make([]result, len(w.batches))
		g.run(ctx, w.batches, results, w.clients, nil)
		g.keep = false
		if err := firstError(results); err != nil {
			return fail(fmt.Errorf("warm-up references: %w", err))
		}
		g.refs = make(map[int][]byte, len(w.batches))
		for i, r := range results {
			var resp struct {
				Responses []planResp `json:"responses"`
			}
			var want batchReq
			if err := json.Unmarshal(w.batches[i].body, &want); err != nil {
				return fail(err)
			}
			if err := json.Unmarshal(r.body, &resp); err != nil || len(resp.Responses) != len(want.Requests) {
				return fail(fmt.Errorf("warm-up: batch %d: want %d responses: %v", i, len(want.Requests), err))
			}
			for j, pr := range resp.Responses {
				if !pr.Cached || pr.Error != "" {
					return fail(fmt.Errorf("warm-up: batch %d entry %d is not a memo hit after planning: %s", i, j, pr.Error))
				}
			}
			g.refs[w.batches[i].key] = batchPrefix(r.body)
		}
	}
	return s, g, time.Since(start), nil
}

func firstError(results []result) error {
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// pass is one measured run of the fixed list against one server.
type pass struct {
	results   []result
	wall      time.Duration
	user, sys float64 // server CPU seconds spent over the list
	rssMB     float64 // server VmHWM after the list
	before    series  // /metrics before and after (traced pass only)
	after     series
}

// measure runs w.ops against s and then checks every op. Scrapes, CPU
// and RSS reads and the checks all sit outside the timed window.
func measure(ctx context.Context, s *server, g *loadgen, w *workloadSpec, seed uint64, logs []*spanLog) (*pass, error) {
	p := &pass{results: make([]result, len(w.ops))}
	var err error
	if logs != nil {
		if p.before, err = s.scrape(ctx, g.hc); err != nil {
			return nil, err
		}
	}
	u0, s0, err := procCPU(s.pid)
	if err != nil {
		return nil, err
	}
	p.wall = g.run(ctx, w.ops, p.results, w.clients, logs)
	u1, s1, err := procCPU(s.pid)
	if err != nil {
		return nil, err
	}
	p.user, p.sys = u1-u0, s1-s0
	if p.rssMB, err = procPeakRSS(s.pid); err != nil {
		return nil, err
	}
	if logs != nil {
		if p.after, err = s.scrape(ctx, g.hc); err != nil {
			return nil, err
		}
	}
	if w.name == "plan-miss" {
		checkMiss(w.ops, p.results, seed)
	}
	return p, nil
}

// latencies returns the latencies, in ms, of the ops that passed.
func (p *pass) latencies() []float64 {
	var out []float64
	for _, r := range p.results {
		if r.err == nil {
			out = append(out, float64(r.lat)/float64(time.Millisecond))
		}
	}
	return out
}

func (p *pass) failed() (n int, first error) {
	for _, r := range p.results {
		if r.err != nil {
			if first == nil {
				first = r.err
			}
			n++
		}
	}
	return n, first
}

func (p *pass) okPerSec() float64 {
	failed, _ := p.failed()
	return float64(len(p.results)-failed) / p.wall.Seconds()
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// reps is the number of repetitions of an end-to-end run, each on a
// fresh server: the host's vCPUs slow down in bursts of seconds to a
// minute, and a median over seven short repetitions rides out a burst
// that covers up to three of them.
const reps = 7

// endToEndRun makes the repetitions and reports the latency
// percentiles of all their ops together and the median over them of
// each other metric. A repetition's own percentile can sit on the
// border of two groups of ops of different speed and jump between
// them, so the median of per-repetition percentiles moves in steps
// where the pooled percentile moves smoothly.
func endToEndRun(ctx context.Context, o options, w *workloadSpec) (output, error) {
	out := output{Metrics: map[string]metric{}}
	var setupS, okPerS, cpuMs, rssMB, all []float64
	for i := range reps {
		s, g, d, err := setup(ctx, o, w)
		if err != nil {
			return output{}, err
		}
		p, err := measure(ctx, s, g, w, o.seed, nil)
		g.close()
		s.stop()
		if err != nil {
			return output{}, err
		}
		failed, first := p.failed()
		if first != nil {
			fmt.Fprintf(os.Stderr, "servebench: %d failed ops, first: %v\n", failed, first)
		}
		out.Attempted += len(p.results)
		out.Failed += failed
		setupS = append(setupS, d.Seconds())
		okPerS = append(okPerS, p.okPerSec())
		cpuMs = append(cpuMs, (p.user+p.sys)*1000/float64(len(p.results)))
		rssMB = append(rssMB, p.rssMB)
		lat := p.latencies()
		all = append(all, lat...)
		slices.Sort(lat)
		fmt.Printf("rep %d: ops=%d failed=%d wall_s=%.3f setup_s=%.4g ok_per_s=%.4g cpu_ms_per_op=%.4g rss_peak_mb=%.4g p50_ms=%.4g p90_ms=%.4g\n",
			i, len(p.results), failed, p.wall.Seconds(), setupS[i], okPerS[i], cpuMs[i], rssMB[i],
			quantile(lat, 0.5), quantile(lat, 0.9))
	}
	slices.Sort(all)
	fmt.Printf("latency samples %d, beyond p90 %d\n", len(all), len(all)-int(math.Ceil(float64(len(all))*0.9)))
	out.Correct = out.Failed == 0
	out.Metrics = map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"ok_per_s":       {median(okPerS), "1/s"},
		"latency_p50_ms": {quantile(all, 0.5), "ms"},
		"latency_p90_ms": {quantile(all, 0.9), "ms"},
		"cpu_ms_per_op":  {median(cpuMs), "ms"},
		"rss_peak_mb":    {median(rssMB), "MB"},
	}
	return out, nil
}
