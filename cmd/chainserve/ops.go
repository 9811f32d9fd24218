// The service's ops plane: the actuation layer over the observability
// plane. Admission control gates the write routes ahead of the shard
// pools (bounded queues, two priority classes, per-request deadlines
// honoring X-Deadline-Ms), the SLO tracker computes multi-window burn
// rates from the same route histograms /metrics exports, burn-coupled
// load-shedding drops batch work first when the fast window burns hot,
// and the self-tuner periodically retunes the engine's scratch pools
// (and, with -admit-max, the admission bound). Admin views: GET
// /v1/admin/slo, GET+POST /v1/admin/tune.
package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"chainckpt/internal/obs"
	"chainckpt/internal/ops"
)

// opsConfig carries the ops-plane flags into server construction.
// defaultOpsConfig is generous enough that a test server never sheds
// unless it asks to.
type opsConfig struct {
	// AdmitConcurrent / AdmitQueue bound the admission controller.
	AdmitConcurrent int
	AdmitQueue      int
	// AdmitMin / AdmitMax, when AdmitMax > 0, enable the tuner's
	// adaptive-concurrency loop: each cycle nudges the live admission
	// bound within [AdmitMin, AdmitMax] from the shard-pool queue-wait
	// histogram (exported as chainckpt_admission_concurrent_limit).
	AdmitMin int
	AdmitMax int
	// RetryAfter is the backoff hint on 429 responses.
	RetryAfter time.Duration
	// SLOThreshold (seconds) and SLOObjective parameterize the
	// interactive latency SLO over the plan routes.
	SLOThreshold float64
	SLOObjective float64
	// BurnShed is the fast-window burn rate beyond which batch work is
	// shed (0 disables the coupling).
	BurnShed float64
	// SampleInterval is the SLO sampling/coupling cadence.
	SampleInterval time.Duration
	// SelfTune is the periodic self-tune cadence (0 disables the loop;
	// POST /v1/admin/tune still forces cycles).
	SelfTune time.Duration
}

func defaultOpsConfig() opsConfig {
	return opsConfig{
		AdmitConcurrent: 64,
		AdmitQueue:      256,
		RetryAfter:      time.Second,
		SLOThreshold:    1.0,
		SLOObjective:    0.99,
		BurnShed:        10,
		SampleInterval:  10 * time.Second,
	}
}

// interactiveRoutes are the routes the interactive SLO spans — the
// synchronous planning paths a caller is actively waiting on.
var interactiveRoutes = []string{"plan", "plan_batch", "replan"}

// initOps builds the admission controller, SLO tracker and self-tuner
// over the server's registry and engine. Called after initObs (the
// route histograms must exist). Background cadences start in startOps.
func (s *server) initOps(cfg opsConfig) {
	s.opsCfg = cfg
	reg := s.obs.reg
	s.opsMetrics = ops.NewMetrics(reg)
	s.admission = ops.NewController(ops.ControllerConfig{
		MaxConcurrent: cfg.AdmitConcurrent,
		MaxQueue:      cfg.AdmitQueue,
		RetryAfter:    cfg.RetryAfter,
	}, s.opsMetrics)

	// The interactive SLO reads the same per-route histograms /metrics
	// exports; merging keeps one budget across the three plan routes.
	src := func() obs.HistogramSnapshot {
		snaps := make([]obs.HistogramSnapshot, 0, len(interactiveRoutes))
		for _, route := range interactiveRoutes {
			snaps = append(snaps, s.routeLat.With(route).Snapshot())
		}
		return ops.MergeSnapshots(snaps...)
	}
	s.tracker = ops.NewTracker(ops.TrackerConfig{
		SampleInterval: cfg.SampleInterval,
	}, s.opsMetrics, ops.SLO{
		Name:      "interactive_latency",
		Threshold: cfg.SLOThreshold,
		Objective: cfg.SLOObjective,
		Source:    src,
	})

	// The adaptive-concurrency loop reads the same per-shard queue-wait
	// histograms /metrics exports, merged into one saturation signal.
	nshards := len(s.eng.Stats().Shards)
	queueWait := func() obs.HistogramSnapshot {
		snaps := make([]obs.HistogramSnapshot, 0, nshards)
		for i := 0; i < nshards; i++ {
			snaps = append(snaps, s.obs.engine.QueueWait.With(strconv.Itoa(i)).Snapshot())
		}
		return ops.MergeSnapshots(snaps...)
	}
	s.tuner = ops.NewTuner(ops.TunerConfig{
		Admission: s.admission,
		QueueWait: queueWait,
		AdmitMin:  cfg.AdmitMin,
		AdmitMax:  cfg.AdmitMax,
		Sizes: func() []ops.SizeCount {
			sizes := s.eng.Stats().Kernel.Sizes
			out := make([]ops.SizeCount, len(sizes))
			for i, sz := range sizes {
				out[i] = ops.SizeCount{N: sz.N, Solves: sz.Solves}
			}
			return out
		},
	}, s.eng, s.opsMetrics)

	// Scrape-fresh burn gauges: /metrics triggers the same tick the
	// sampler cadence runs, so a scrape never shows stale burn rates.
	// Closely spaced samples coalesce in the tracker ring.
	reg.OnScrape(s.opsTick)
}

// opsTick is one observation/actuation step: sample the SLO sources,
// refresh the burn gauges, and couple the fast-window burn to batch
// shedding when the coupling is enabled.
func (s *server) opsTick() {
	s.tracker.Sample()
	if s.opsCfg.BurnShed > 0 {
		s.admission.SetShedding(s.tracker.MaxFastBurn() >= s.opsCfg.BurnShed)
	}
}

// startOps launches the background cadences: the SLO sampler (always)
// and the periodic self-tuner (when -selftune-interval > 0). stopOps
// ends them; both are idempotent enough for tests to call freely.
func (s *server) startOps() {
	if s.opsStop != nil {
		return
	}
	stop := make(chan struct{})
	s.opsStop = stop
	go func() {
		t := time.NewTicker(s.opsCfg.SampleInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.opsTick()
			case <-stop:
				return
			}
		}
	}()
	if s.opsCfg.SelfTune > 0 {
		go func() {
			t := time.NewTicker(s.opsCfg.SelfTune)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.tuner.RunCycle("periodic")
				case <-stop:
					return
				}
			}
		}()
	}
}

func (s *server) stopOps() {
	if s.opsStop != nil {
		close(s.opsStop)
		s.opsStop = nil
	}
	s.admission.Close()
}

// admit gates one route through the admission controller in the given
// class. The X-Deadline-Ms header becomes a context deadline covering
// both the queue wait and the handler itself, so a request that waited
// out its budget is failed instead of run for a client that left.
func (s *server) admit(class ops.Class, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if ms := r.Header.Get("X-Deadline-Ms"); ms != "" {
			if d, err := strconv.Atoi(ms); err == nil && d > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(d)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		release, err := s.admission.Admit(ctx, class)
		if err != nil {
			writeAdmissionError(w, err)
			return
		}
		defer release()
		h(w, r)
	}
}

// writeAdmissionError maps admission outcomes onto HTTP: sheds are 429
// with a Retry-After hint (back off, the service is protecting its
// SLO), deadline/cancel/closed are 503 (the request was accepted but
// could not be served).
func writeAdmissionError(w http.ResponseWriter, err error) {
	var shed *ops.ShedError
	if errors.As(err, &shed) {
		secs := int(math.Ceil(shed.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, err)
}

// handleSLO serves the SLO tracker's current view: per-objective fast
// and slow windows with bad fractions, burn rates and quantiles, plus
// whether batch shedding is currently engaged.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"slos":     s.tracker.Report(),
		"shedding": s.admission.Shedding(),
	})
}

// handleTuneGet serves the tuner's cycle history and the live
// admission bound.
func (s *server) handleTuneGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"admit_limit": s.admission.MaxConcurrent(),
		"events":      s.tuner.History(),
	})
}

// handleTuneForce runs one self-tune cycle immediately and returns its
// event — the operator's "retune now" button.
func (s *server) handleTuneForce(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tuner.RunCycle("forced"))
}
