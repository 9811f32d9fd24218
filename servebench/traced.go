package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"chainckpt/internal/core"
	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	rt "chainckpt/internal/runtime"
)

// tracePairs is the number of untraced/traced pass pairs of a traced
// run. The host's speed drifts between passes, so one pair says more
// about the drift than about the spans; trace.ok_per_s_ratio is the
// median of the pairs' ratios.
const tracePairs = 3

// tracedRun is the per-layer run: tracePairs pairs of an untraced and a
// traced pass over the same list, each pass on a fresh server, the
// order inside a pair alternating; then timed in-process calls into
// core, engine, runtime and jobstore on the same seed's inputs. The
// layer metrics and the span dump come from the last traced pass, with
// /metrics scraped around it.
func tracedRun(ctx context.Context, o options, w *workloadSpec) (output, error) {
	var out output
	var ratios []float64
	var traced *pass
	var logs []*spanLog
	for i := range tracePairs {
		var base *pass
		for j := range 2 {
			var l, clientLogs []*spanLog
			if (i+j)%2 == 1 {
				l = newSpanLogs(w.clients+1, time.Now())
				clientLogs = l[:w.clients]
			}
			s, g, _, err := setup(ctx, o, w)
			if err != nil {
				return output{}, err
			}
			p, err := measure(ctx, s, g, w, o.seed, clientLogs)
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
			if l != nil {
				traced, logs = p, l
			} else {
				base = p
			}
		}
		ratios = append(ratios, ratio(traced.okPerSec(), base.okPerSec()))
		fmt.Printf("pair %d: traced/untraced ok_per_s %.4f\n", i, ratios[i])
	}
	in, err := inproc(ctx, o, logs[w.clients])
	if err != nil {
		return output{}, err
	}
	spanFile := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
	if err := writeSpans(spanFile, logs); err != nil {
		return output{}, err
	}

	m := layerMetrics(traced, in)
	nspans := 0
	for _, l := range logs {
		nspans += len(l.spans)
	}
	fmt.Printf("%d spans written to %s\n", nspans, spanFile)
	for name, d := range selfTimes(logs) {
		m["span."+name+".self_ms"] = metric{float64(d) / float64(time.Millisecond), "ms"}
	}
	for _, l := range layers {
		if _, ok := m["span."+l+".self_ms"]; !ok {
			m["span."+l+".self_ms"] = metric{0, "ms"}
		}
	}
	m["trace.ok_per_s_ratio"] = metric{median(ratios), "ratio"}
	out.Correct = out.Failed == 0
	out.Metrics = m
	return out, nil
}

// layers are the span layers a traced run reports self time for.
var layers = []string{"client", "chainserve", "engine", "core", "runtime", "jobstore"}

// inprocStats are the layer timings measured in process.
type inprocStats struct {
	solveMs     map[string]float64 // core: mean Kernel.PlanOpts per plan-miss class
	allocMB     float64            // core: heap allocated per solve
	gcPerSolve  float64            // core: GC cycles per solve
	hitUs       float64            // engine: Plan on a resident key
	fingerprint float64            // engine: Fingerprint, µs
	jobMs       float64            // runtime: NewStore + Supervisor.Run
	appendUs    float64            // jobstore: Journal.Append
}

// In-process sample sizes: solves per plan-miss class, engine calls,
// jobs and journal appends.
const (
	solvesPerClass = 3
	engineCalls    = 4000
	engineKeys     = 8
	inprocJobs     = 8
	journalAppends = 200
)

// inproc times the layers' public functions on the seed's generated
// inputs, recording a span around each call in log.
func inproc(ctx context.Context, o options, log *spanLog) (inprocStats, error) {
	st := inprocStats{solveMs: map[string]float64{}}
	root := log.begin("client.inproc", -1, -1)
	defer log.end(root)
	timed := func(name string, f func() error) (time.Duration, error) {
		sp := log.begin(name, root, -1)
		t := time.Now()
		err := f()
		d := time.Since(t)
		log.end(sp)
		return d, err
	}

	// core: the first instances of each plan-miss class, after one
	// untimed solve per class from the warm-up list.
	miss, err := genMiss(o.seed, 1)
	if err != nil {
		return st, err
	}
	// Collect the HTTP passes' garbage first: a collection triggered in
	// the middle would empty the kernel's scratch pools and count fresh
	// arenas as the solves' allocations.
	goruntime.GC()
	kernel := core.NewKernel()
	solve := func(rq request) error {
		req, c, err := compile(rq.plan)
		if err != nil {
			return err
		}
		opts := req.Opts
		opts.SolveWorkers = 1
		_, err = kernel.PlanOpts(req.Algorithm, c, req.Platform, opts)
		return err
	}
	for _, rq := range miss.warm[:len(missCycle)] {
		if err := solve(rq); err != nil {
			return st, err
		}
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	solves := 0
	for _, cl := range missClasses {
		var total time.Duration
		n := 0
		for _, rq := range miss.ops {
			if rq.class != cl.name || n == solvesPerClass {
				continue
			}
			d, err := timed("core.PlanOpts", func() error { return solve(rq) })
			if err != nil {
				return st, err
			}
			total += d
			n++
		}
		st.solveMs[cl.name] = float64(total) / float64(n) / float64(time.Millisecond)
		solves += n
	}
	goruntime.ReadMemStats(&ms1)
	st.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(solves)
	st.gcPerSolve = float64(ms1.NumGC-ms0.NumGC) / float64(solves)

	// engine: memo hits on resident plan-hot keys, and fingerprints.
	hot, err := genHot(o.seed, 1)
	if err != nil {
		return st, err
	}
	eng := engine.New(engine.Options{CacheSize: 4096})
	defer eng.Close()
	reqs := make([]engine.Request, engineKeys)
	for i := range reqs {
		if reqs[i], _, err = compile(hot.warm[i].plan); err != nil {
			return st, err
		}
		if _, err := eng.Plan(ctx, reqs[i]); err != nil {
			return st, err
		}
	}
	var hitTotal, fpTotal time.Duration
	for i := range engineCalls {
		d, err := timed("engine.Plan", func() error {
			_, err := eng.Plan(ctx, reqs[i%engineKeys])
			return err
		})
		if err != nil {
			return st, err
		}
		hitTotal += d
	}
	for i := range engineCalls {
		d, err := timed("engine.Fingerprint", func() error {
			_, err := engine.Fingerprint(reqs[i%engineKeys])
			return err
		})
		if err != nil {
			return st, err
		}
		fpTotal += d
	}
	st.hitUs = float64(hitTotal) / engineCalls / float64(time.Microsecond)
	st.fingerprint = float64(fpTotal) / engineCalls / float64(time.Microsecond)

	// runtime: jobs of the fixed instance with seeded runner seeds, their
	// checkpoint stores on disk.
	sched, err := jobSchedule()
	if err != nil {
		return st, err
	}
	dir := filepath.Join(o.workdir, "stores", "inproc")
	job := jobInstance()
	jobSpec, err := json.Marshal(job)
	if err != nil {
		return st, err
	}
	req, c, err := compile(job)
	if err != nil {
		return st, err
	}
	var jobTotal time.Duration
	for i, seed := range jobSeeds(o.seed, inprocJobs) {
		sp := log.begin("runtime.job", root, i)
		t := time.Now()
		child := log.begin("runtime.NewStore", sp, i)
		store, err := rt.NewStore(filepath.Join(dir, fmt.Sprint(i)))
		log.end(child)
		if err != nil {
			return st, err
		}
		child = log.begin("runtime.Supervisor.Run", sp, i)
		_, err = rt.New(rt.Options{}).Run(ctx, rt.Job{
			Chain: c, Platform: req.Platform, Schedule: sched.Clone(), Algorithm: req.Algorithm,
			Runner: rt.NewMisspecifiedRunner(req.Platform, 1, 1, seed), Store: store,
		})
		log.end(child)
		jobTotal += time.Since(t)
		log.end(sp)
		if err != nil {
			return st, err
		}
	}
	st.jobMs = float64(jobTotal) / inprocJobs / float64(time.Millisecond)

	// jobstore: fsync'd appends of running(progress) records shaped
	// like chainserve's.
	journal, err := jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{})
	if err != nil {
		return st, err
	}
	defer journal.Close()
	schedJSON, err := json.Marshal(sched)
	if err != nil {
		return st, err
	}
	var appendTotal time.Duration
	for i := range journalAppends {
		rec := jobstore.Record{
			ID: fmt.Sprintf("job-%d", i/25+1), Seq: uint64(i/25 + 1), Version: uint64(i%25 + 1),
			State: jobstore.StateRunning, Progress: i % 25, Spec: jobSpec, Schedule: schedJSON,
		}
		d, err := timed("jobstore.Append", func() error { return journal.Append(rec) })
		if err != nil {
			return st, err
		}
		appendTotal += d
	}
	st.appendUs = float64(appendTotal) / journalAppends / float64(time.Microsecond)
	return st, nil
}

// layerMetrics derives the per-layer metrics from the traced pass's
// /metrics delta, its client latencies and /proc reads, and the
// in-process timings. Ratios over a layer the workload never reached
// read 0.
func layerMetrics(p *pass, in inprocStats) map[string]metric {
	d := delta(p.before, p.after)
	ops := float64(len(p.results))
	ms := func(v float64) float64 { return v * 1000 }

	// One of the two routes is used per workload: plan-miss sends
	// /v1/plan, plan-hot /v1/plan/batch.
	serverSec := d.sum("chainserve_http_request_seconds_sum", "route", "plan") +
		d.sum("chainserve_http_request_seconds_sum", "route", "plan_batch")
	serverCount := d.sum("chainserve_http_request_seconds_count", "route", "plan") +
		d.sum("chainserve_http_request_seconds_count", "route", "plan_batch")
	var clientSec float64
	for _, r := range p.results {
		clientSec += r.lat.Seconds()
	}
	serverMean := ratio(serverSec, serverCount)
	hits := d.sum("chainserve_engine_cache_hits_total")
	misses := d.sum("chainserve_engine_cache_misses_total")
	solves := d.sum("chainckpt_engine_solve_seconds_count")
	reuses := d.sum("chainserve_kernel_scratch_reuses_total")
	fresh := d.sum("chainserve_kernel_scratch_fresh_total")

	m := map[string]metric{
		"chainserve.server_ms_per_op":    {ms(serverMean), "ms"},
		"chainserve.transport_ms_per_op": {ms(ratio(clientSec, ops) - serverMean), "ms"},
		"chainserve.sys_cpu_ms_per_op":   {ms(ratio(p.sys, ops)), "ms"},
		"ops.admitted":                   {d.sum("chainckpt_admission_admitted_total"), "count"},
		"ops.shed":                       {d.sum("chainckpt_admission_shed_total"), "count"},
		"ops.queue_wait_ms_per_op": {ms(ratio(d.sum("chainckpt_admission_queue_wait_seconds_sum"),
			d.sum("chainckpt_admission_queue_wait_seconds_count"))), "ms"},
		"engine.hit_ratio": {ratio(hits, hits+misses), "ratio"},
		"engine.queue_wait_ms_per_solve": {ms(ratio(d.sum("chainckpt_engine_queue_wait_seconds_sum"),
			d.sum("chainckpt_engine_queue_wait_seconds_count"))), "ms"},
		"engine.solve_ms_per_solve": {ms(ratio(d.sum("chainckpt_engine_solve_seconds_sum"), solves)), "ms"},
		"engine.hit_us":             {in.hitUs, "us"},
		"engine.fingerprint_us":     {in.fingerprint, "us"},
		"core.alloc_mb_per_solve":   {in.allocMB, "MB"},
		"core.gc_cycles_per_solve":  {in.gcPerSolve, "count"},
		"core.scratch_reuse_ratio":  {ratio(reuses, reuses+fresh), "ratio"},
		"core.arena_mb":             {p.after.sum("chainckpt_kernel_arena_bytes") / (1 << 20), "MB"},
		"core.parallel_solves":      {d.sum("chainckpt_kernel_parallel_solves_total"), "count"},
		"core.crossover_skips":      {d.sum("chainckpt_kernel_parallel_crossover_skips_total"), "count"},
		"runtime.job_ms":            {in.jobMs, "ms"},
		"jobstore.append_us":        {in.appendUs, "us"},
	}
	for name, v := range in.solveMs {
		m["core.solve_ms."+name] = metric{v, "ms"}
	}
	return m
}
