package ops

import (
	"sync"
	"testing"

	"chainckpt/internal/obs"
)

// fakeEngine counts Tune calls.
type fakeEngine struct {
	mu    sync.Mutex
	tunes int
}

func (f *fakeEngine) Tune() {
	f.mu.Lock()
	f.tunes++
	f.mu.Unlock()
}

// fakeLimiter records adaptive-admission actuations.
type fakeLimiter struct {
	mu    sync.Mutex
	limit int
	sets  int
}

func (f *fakeLimiter) MaxConcurrent() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.limit
}

func (f *fakeLimiter) SetMaxConcurrent(n int) {
	f.mu.Lock()
	f.limit = n
	f.sets++
	f.mu.Unlock()
}

// TestTunerCycleTunesAndRecordsSizes: every cycle retunes the scratch
// pools and records the solves seen since the previous cycle (the delta
// of the cumulative histogram, not boot-time history), its trigger, and
// the cycle and action counters.
func TestTunerCycleTunesAndRecordsSizes(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	eng := &fakeEngine{}
	var sizes []SizeCount
	tu := NewTuner(TunerConfig{Sizes: func() []SizeCount { return sizes }}, eng, m)

	sizes = []SizeCount{{N: 512, Solves: 90}, {N: 32, Solves: 10}}
	ev := tu.RunCycle("forced")
	if ev.Action != "keep" || ev.CycleSolves != 100 || len(ev.TopSizes) != 2 {
		t.Fatalf("first cycle event = %+v, want keep with 100 solves in 2 sizes", ev)
	}

	// No new solves.
	if ev = tu.RunCycle("periodic"); ev.CycleSolves != 0 || len(ev.TopSizes) != 0 {
		t.Fatalf("idle cycle event = %+v, want 0 solves", ev)
	}

	// Only the n=32 row moved: the delta holds it alone.
	sizes = []SizeCount{{N: 512, Solves: 90}, {N: 32, Solves: 110}}
	ev = tu.RunCycle("periodic")
	if ev.CycleSolves != 100 || len(ev.TopSizes) != 1 || ev.TopSizes[0] != (SizeCount{N: 32, Solves: 100}) {
		t.Fatalf("third cycle event = %+v, want 100 solves at n=32", ev)
	}

	if eng.tunes != 3 {
		t.Fatalf("Tune calls = %d, want 3", eng.tunes)
	}
	hist := tu.History()
	if len(hist) != 3 || hist[0].Trigger != "forced" || hist[1].Trigger != "periodic" {
		t.Fatalf("history = %+v, want forced then periodic cycles", hist)
	}
	if got := m.TunerCycles.With("forced").Value(); got != 1 {
		t.Fatalf("cycles{forced} = %d, want 1", got)
	}
	if got := m.TunerCycles.With("periodic").Value(); got != 2 {
		t.Fatalf("cycles{periodic} = %d, want 2", got)
	}
	if got := m.TunerActions.With("keep").Value(); got != 3 {
		t.Fatalf("events{keep} = %d, want 3", got)
	}
}

func TestTunerHistoryBounded(t *testing.T) {
	eng := &fakeEngine{}
	n := 0
	tu := NewTuner(TunerConfig{
		Sizes:      func() []SizeCount { n += 100; return []SizeCount{{N: 512, Solves: uint64(n)}} },
		HistoryCap: 4,
	}, eng, nil)
	for i := 0; i < 10; i++ {
		tu.RunCycle("periodic")
	}
	if got := len(tu.History()); got != 4 {
		t.Fatalf("history length = %d, want 4 (bounded)", got)
	}
}

// TestTunerAdmissionAdapt: the adaptive-concurrency loop deltas the
// queue-wait histogram each cycle and steps the admission bound down on
// a hot p90, up on a cold one, clamped to [AdmitMin, AdmitMax], and
// holds still on an idle cycle.
func TestTunerAdmissionAdapt(t *testing.T) {
	eng := &fakeEngine{}
	lim := &fakeLimiter{limit: 16}
	uppers := []float64{0.001, 0.01, 0.1, 1}
	var snap obs.HistogramSnapshot
	tu := NewTuner(TunerConfig{
		Admission: lim,
		QueueWait: func() obs.HistogramSnapshot { return snap },
		AdmitMin:  2,
		AdmitMax:  16,
	}, eng, nil)

	// Cycle 1: 100 waits in the 10–100ms bucket — p90 ≈ 91ms, above the
	// 50ms high-water mark. Step down by cur/4: 16 -> 12.
	snap = obs.HistogramSnapshot{Uppers: uppers, Cum: []uint64{0, 0, 100, 100, 100}, Sum: 5}
	ev := tu.RunCycle("periodic")
	if ev.OldAdmitLimit != 16 || ev.NewAdmitLimit != 12 || lim.MaxConcurrent() != 12 || ev.Action != "retune" {
		t.Fatalf("hot cycle = old %d new %d limiter %d action %q, want retune 16 -> 12",
			ev.OldAdmitLimit, ev.NewAdmitLimit, lim.MaxConcurrent(), ev.Action)
	}
	if ev.QueueWaitP90 < 0.05 {
		t.Fatalf("hot cycle p90 = %v, want >= 0.05", ev.QueueWaitP90)
	}

	// Cycle 2: 100 new waits all under 1ms — the DELTA is cold even
	// though the cumulative histogram still holds the hot era. Step up:
	// 12 -> 15.
	snap = obs.HistogramSnapshot{Uppers: uppers, Cum: []uint64{100, 100, 200, 200, 200}, Sum: 5.05}
	ev = tu.RunCycle("periodic")
	if ev.NewAdmitLimit != 15 || lim.MaxConcurrent() != 15 {
		t.Fatalf("cold cycle limit = %d/%d, want 15", ev.NewAdmitLimit, lim.MaxConcurrent())
	}

	// Cycle 3: no new waits — hold.
	before := lim.sets
	ev = tu.RunCycle("periodic")
	if ev.NewAdmitLimit != 15 || lim.sets != before || ev.Action != "keep" {
		t.Fatalf("idle cycle moved the bound: %+v (sets %d -> %d)", ev, before, lim.sets)
	}

	// Clamp: hot cycles walk the bound down but never below AdmitMin.
	cum := uint64(200)
	for i := 0; i < 12; i++ {
		cum += 50
		snap = obs.HistogramSnapshot{Uppers: uppers, Cum: []uint64{100, 100, cum, cum, cum}, Sum: float64(cum) / 20}
		ev = tu.RunCycle("periodic")
		if ev.NewAdmitLimit < 2 || lim.MaxConcurrent() < 2 {
			t.Fatalf("bound fell below AdmitMin: %+v", ev)
		}
	}
	if lim.MaxConcurrent() != 2 {
		t.Fatalf("limiter = %d, want clamped at AdmitMin 2", lim.MaxConcurrent())
	}
}

func TestTunerNil(t *testing.T) {
	var tu *Tuner
	if ev := tu.RunCycle("forced"); ev.Action != "" {
		t.Fatal("nil tuner produced an event")
	}
	if tu.History() != nil {
		t.Fatal("nil tuner has history")
	}
}
