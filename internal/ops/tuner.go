package ops

import (
	"sync"
	"time"

	"chainckpt/internal/obs"
)

// TunableEngine is the slice of the planning engine the tuner drives:
// scratch-pool retuning. internal/engine.Engine satisfies it.
type TunableEngine interface {
	// Tune installs exact-capacity scratch pools for the hottest window
	// lengths (core.Kernel.Tune semantics).
	Tune()
}

// AdmissionLimiter is the slice of the admission Controller the tuner's
// adaptive-concurrency loop drives.
type AdmissionLimiter interface {
	MaxConcurrent() int
	SetMaxConcurrent(n int)
}

// SizeCount is one row of the kernel's solve-size histogram.
type SizeCount struct {
	N      int    `json:"n"`
	Solves uint64 `json:"solves"`
}

// TunerConfig parameterizes the tuner. Zero values pick the noted
// defaults.
type TunerConfig struct {
	// Sizes yields the cumulative per-n solve histogram (engine
	// Stats().Kernel.Sizes projected to SizeCount); each event records
	// the cycle's delta of it. Nil records none.
	Sizes func() []SizeCount
	// HistoryCap bounds the tuning-event ring (default 64).
	HistoryCap int
	// Now is the clock (default time.Now). Injectable for tests.
	Now func() time.Time

	// Admission, when non-nil together with a QueueWait source and a
	// positive AdmitMax, enables the adaptive-concurrency loop: each
	// cycle deltas the queue-wait histogram and nudges the admission
	// bound within [AdmitMin, AdmitMax] — down one step when the p90
	// wait is above QueueWaitHigh (the pools are saturated; shedding
	// earlier protects latency), up one step when it is below
	// QueueWaitLow (capacity to spare).
	Admission AdmissionLimiter
	// QueueWait yields the cumulative engine queue-wait histogram
	// (per-shard chainckpt_engine_queue_wait_seconds merged).
	QueueWait func() obs.HistogramSnapshot
	// AdmitMin/AdmitMax bound the adaptive admission band. AdmitMin
	// defaults to 1; AdmitMax <= 0 disables the loop.
	AdmitMin, AdmitMax int
	// QueueWaitHigh/QueueWaitLow are the p90 seconds thresholds of the
	// control law (defaults 50ms / 5ms).
	QueueWaitHigh, QueueWaitLow float64
}

// TuningEvent records one self-tune cycle: what the tuner saw, what it
// decided, and the admission bound before/after. Served by GET
// /v1/admin/tune.
type TuningEvent struct {
	Time    time.Time `json:"time"`
	Trigger string    `json:"trigger"` // "periodic" or "forced"
	// Action is "retune" when the cycle moved the admission bound,
	// "keep" otherwise.
	Action string `json:"action"`
	// CycleSolves counts the solves observed since the previous cycle.
	CycleSolves uint64 `json:"cycle_solves"`
	// TopSizes is the triggering snapshot: the hottest window lengths
	// of the cycle (at most 8 rows).
	TopSizes []SizeCount `json:"top_sizes,omitempty"`
	// OldAdmitLimit/NewAdmitLimit bracket the adaptive-concurrency
	// nudge; zero when the loop is disabled. QueueWaitP90 is the cycle's
	// observed p90 shard-pool queue wait in seconds.
	OldAdmitLimit int     `json:"old_admit_limit,omitempty"`
	NewAdmitLimit int     `json:"new_admit_limit,omitempty"`
	QueueWaitP90  float64 `json:"queue_wait_p90,omitempty"`
}

// Tuner runs the self-tune cycle: every RunCycle calls Engine.Tune
// (cheap, always safe) and, when enabled, nudges the admission bound
// from the engine's queue-wait histogram. Neither changes plan bytes —
// only how fast, and how many, solves run.
type Tuner struct {
	cfg TunerConfig
	eng TunableEngine
	m   *Metrics

	mu       sync.Mutex
	last     map[int]uint64 // previous cycle's cumulative per-n counts
	lastWait obs.HistogramSnapshot
	history  []TuningEvent
}

// NewTuner builds a Tuner driving eng. Metrics may be nil.
func NewTuner(cfg TunerConfig, eng TunableEngine, m *Metrics) *Tuner {
	if cfg.HistoryCap <= 0 {
		cfg.HistoryCap = 64
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.AdmitMin <= 0 {
		cfg.AdmitMin = 1
	}
	if cfg.QueueWaitHigh <= 0 {
		cfg.QueueWaitHigh = 0.05
	}
	if cfg.QueueWaitLow <= 0 {
		cfg.QueueWaitLow = 0.005
	}
	return &Tuner{cfg: cfg, eng: eng, m: m}
}

// RunCycle executes one self-tune cycle and returns its event. trigger
// is recorded verbatim ("periodic" from the cadence loop, "forced"
// from POST /v1/admin/tune).
func (t *Tuner) RunCycle(trigger string) TuningEvent {
	if t == nil || t.eng == nil {
		return TuningEvent{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// Scratch-pool retuning first: idempotent, and keeps warm pools
	// for still-hot sizes.
	t.eng.Tune()

	ev := TuningEvent{Time: t.cfg.Now(), Trigger: trigger, Action: "keep"}

	// Delta the cumulative size histogram against the previous cycle
	// so the event reflects the current traffic mix, not boot-time
	// history.
	var sizes []SizeCount
	if t.cfg.Sizes != nil {
		sizes = t.cfg.Sizes()
	}
	cur := make(map[int]uint64, len(sizes))
	var cycle []SizeCount
	for _, s := range sizes {
		cur[s.N] = s.Solves
		d := s.Solves
		if prev, ok := t.last[s.N]; ok {
			if prev >= s.Solves {
				d = 0
			} else {
				d = s.Solves - prev
			}
		}
		if d > 0 {
			cycle = append(cycle, SizeCount{N: s.N, Solves: d})
			ev.CycleSolves += d
		}
	}
	t.last = cur
	if len(cycle) > 8 {
		cycle = cycle[:8]
	}
	ev.TopSizes = cycle

	t.adaptAdmission(&ev)

	t.history = append(t.history, ev)
	if len(t.history) > t.cfg.HistoryCap {
		t.history = t.history[len(t.history)-t.cfg.HistoryCap:]
	}
	if t.m != nil {
		t.m.TunerCycles.With(trigger).Inc()
		t.m.TunerActions.With(ev.Action).Inc()
	}
	return ev
}

// adaptAdmission is the adaptive-concurrency loop: delta the shard-pool
// queue-wait histogram over the cycle and nudge the admission bound one
// step within [AdmitMin, AdmitMax]. High p90 wait means work is
// queueing behind saturated pools — admitting less and shedding earlier
// is what protects latency; a near-idle queue means the bound can grow
// back toward AdmitMax. Called with t.mu held.
func (t *Tuner) adaptAdmission(ev *TuningEvent) {
	if t.cfg.Admission == nil || t.cfg.QueueWait == nil || t.cfg.AdmitMax < t.cfg.AdmitMin {
		return
	}
	snap := t.cfg.QueueWait()
	delta := snap.Sub(t.lastWait)
	t.lastWait = snap
	cur := t.cfg.Admission.MaxConcurrent()
	ev.OldAdmitLimit = cur
	next := cur
	if delta.Count() > 0 {
		p90 := delta.Quantile(0.90)
		ev.QueueWaitP90 = p90
		step := cur / 4
		if step < 1 {
			step = 1
		}
		if p90 >= t.cfg.QueueWaitHigh {
			next = cur - step
		} else if p90 <= t.cfg.QueueWaitLow {
			next = cur + step
		}
	}
	if next < t.cfg.AdmitMin {
		next = t.cfg.AdmitMin
	}
	if next > t.cfg.AdmitMax {
		next = t.cfg.AdmitMax
	}
	if next != cur {
		t.cfg.Admission.SetMaxConcurrent(next)
		ev.Action = "retune"
	}
	ev.NewAdmitLimit = next
}

// History returns the recorded tuning events, oldest first.
func (t *Tuner) History() []TuningEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TuningEvent, len(t.history))
	copy(out, t.history)
	return out
}
