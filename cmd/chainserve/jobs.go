// Job endpoints: chainserve doesn't just hand out schedules, it
// executes them. POST /v1/jobs plans a chain and runs it through the
// runtime supervisor with a fault-injecting runner (optionally with
// misspecified true rates and adaptive re-planning); GET /v1/jobs/{id}
// reports status and the final report; GET /v1/jobs/{id}/events streams
// the execution's event log as NDJSON while it happens; DELETE
// /v1/jobs/{id} cancels a running job.
//
// Every lifecycle transition (created -> planned -> running(progress)
// -> done/failed/cancelled) is appended to a jobstore.Store. With the
// default in-memory store that is bookkeeping; with -store-dir it is a
// write-ahead journal that lets a restarted service list finished jobs
// and resume interrupted ones from their disk checkpoints (see
// recover.go).
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"chainckpt/internal/atomicfile"
	"chainckpt/internal/chain"
	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/obs"
	"chainckpt/internal/platform"
	"chainckpt/internal/replay"
	"chainckpt/internal/runtime"
	"chainckpt/internal/schedule"
	"chainckpt/internal/sim"
)

// jobRequest is the JSON shape of one execution request: a planning
// request plus runtime knobs.
type jobRequest struct {
	planRequest
	// Adaptive enables mid-run suffix re-planning on rate drift.
	Adaptive bool `json:"adaptive,omitempty"`
	// Seed fixes the fault sequence (default: derived from the job id).
	Seed uint64 `json:"seed,omitempty"`
	// ScaleF and ScaleS set the injected true error rates as multiples
	// of the platform's modeled rates (default 1: well-specified).
	ScaleF float64 `json:"true_rate_scale_f,omitempty"`
	ScaleS float64 `json:"true_rate_scale_s,omitempty"`
	// Runner selects the task runner: sim (fault-injecting, default),
	// nop (instant, error-free) or sleep (wall-clock paced, for watching
	// a job progress — and for killing a service mid-job to exercise
	// restart-resume).
	Runner string `json:"runner,omitempty"`
	// SleepScale sets the sleep runner's wall seconds per modeled second
	// (default 1e-4).
	SleepScale float64 `json:"sleep_scale,omitempty"`
	// Retention bounds how many disk checkpoint files the job keeps
	// (0 = all). A long resumable chain places many disk checkpoints,
	// but only the newest can ever be restored from; retaining a couple
	// (for tolerance to a corrupted newest file) bounds the job's disk
	// footprint without losing resumability — the same bound is applied
	// when a restart resumes the job.
	Retention int `json:"retention,omitempty"`
}

// validate rejects the knob combinations the runtime would choke on.
func (jr *jobRequest) validate() error {
	if jr.ScaleF < 0 || jr.ScaleS < 0 {
		return fmt.Errorf("rate scales must be non-negative")
	}
	if jr.SleepScale < 0 {
		return fmt.Errorf("sleep_scale must be non-negative")
	}
	if jr.Retention < 0 {
		return fmt.Errorf("retention must be non-negative")
	}
	switch jr.Runner {
	case "", "sim", "nop", "sleep":
		return nil
	}
	return fmt.Errorf("unknown runner %q (want sim, nop or sleep)", jr.Runner)
}

// normalize applies the defaults, so the marshaled spec a restart
// replays compiles to the same job.
func (jr *jobRequest) normalize() {
	if jr.ScaleF == 0 {
		jr.ScaleF = 1
	}
	if jr.ScaleS == 0 {
		jr.ScaleS = 1
	}
}

// newRunner builds the job's task runner.
func (jr *jobRequest) newRunner(p platform.Platform, seed uint64) runtime.TaskRunner {
	switch jr.Runner {
	case "nop":
		return runtime.NopRunner{}
	case "sleep":
		scale := jr.SleepScale
		if scale == 0 {
			scale = 1e-4
		}
		return runtime.SleepRunner{Scale: scale}
	default:
		return runtime.NewMisspecifiedRunner(p, jr.ScaleF, jr.ScaleS, seed)
	}
}

// jobStatus is the wire representation of a job.
type jobStatus struct {
	ID        string  `json:"id"`
	Status    string  `json:"status"` // running | done | failed | cancelled
	Adaptive  bool    `json:"adaptive,omitempty"`
	Algorithm string  `json:"algorithm,omitempty"`
	Predicted float64 `json:"predicted_makespan,omitempty"`
	// Resumes counts service restarts that relaunched this job.
	Resumes   int             `json:"resumes,omitempty"`
	CreatedAt time.Time       `json:"created_at"`
	Report    *runtime.Report `json:"report,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// job is one tracked execution. Event followers block on cond until new
// events arrive or the run finishes. rec mirrors the job's durable
// record; its Version advances with every persisted transition.
// recorder, when attached, event-sources the execution (trace frames,
// lifecycle records, estimator snapshots) into a replay.Recording whose
// canonical bytes land in recording once the run is sealed.
type job struct {
	mu        sync.Mutex
	cond      *sync.Cond
	status    jobStatus
	events    []sim.TraceEvent
	done      bool
	cancelled bool
	cancel    context.CancelFunc
	rec       jobstore.Record

	recorder  *replay.Recorder
	recording []byte
	recErr    error
}

func newJob(st jobStatus, rec jobstore.Record) *job {
	j := &job{status: st, rec: rec}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// record snapshots the job's current durable record.
func (j *job) record() jobstore.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// attachRecorder starts event-sourcing the job: initial carries the
// lifecycle records persisted before the recorder existed (the
// created/planned pair of a fresh job, the running record of a resumed
// one); every later transition is fed by jobManager.transition.
func (j *job) attachRecorder(rec *replay.Recorder, initial ...jobstore.Record) {
	for _, r := range initial {
		rec.Lifecycle(r)
	}
	j.mu.Lock()
	j.recorder = rec
	j.mu.Unlock()
}

func (j *job) getRecorder() *replay.Recorder {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recorder
}

// sealRecording publishes the canonical recording bytes (or the sealing
// failure) and wakes trace waiters.
func (j *job) sealRecording(data []byte, err error) {
	j.mu.Lock()
	j.recording, j.recErr = data, err
	j.cond.Broadcast()
	j.mu.Unlock()
}

// errNoRecording marks a job that executes without a recorder: one
// adopted in its terminal state from a previous service life.
var errNoRecording = fmt.Errorf("job has no recording (finished in a previous service life)")

// waitRecording blocks until the job's recording is sealed, the sealing
// fails, or ctx is done. Callers must arrange a cond broadcast on ctx
// cancellation (context.AfterFunc), as handleJobTrace does.
func (j *job) waitRecording(ctx context.Context) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.recorder == nil {
		return nil, errNoRecording
	}
	for j.recording == nil && j.recErr == nil && ctx.Err() == nil {
		j.cond.Wait()
	}
	switch {
	case j.recording != nil:
		return j.recording, nil
	case j.recErr != nil:
		return nil, j.recErr
	default:
		return nil, ctx.Err()
	}
}

// append records one event and wakes followers.
func (j *job) append(ev sim.TraceEvent) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finish seals the job and wakes followers.
func (j *job) finish(rep *runtime.Report, err error) {
	j.mu.Lock()
	switch {
	case err != nil && j.cancelled:
		j.status.Status = "cancelled"
		j.status.Error = err.Error()
	case err != nil:
		j.status.Status = "failed"
		j.status.Error = err.Error()
	default:
		j.status.Status = "done"
		j.status.Report = rep
	}
	j.done = true
	j.cond.Broadcast()
	j.mu.Unlock()
}

// requestCancel marks the job cancelled and stops its execution,
// reporting whether it was still running.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return false
	}
	j.cancelled = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

func (j *job) setCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	cancelled := j.cancelled
	j.mu.Unlock()
	// A DELETE that raced job admission was acknowledged with
	// "cancelling" before the cancel func existed; honor it now.
	if cancelled {
		cancel()
	}
}

// next returns events[from:] once new data or completion is available,
// blocking otherwise. The returned done flag is true when no further
// events will come. A cancelled ctx unblocks with done=true.
func (j *job) next(ctx context.Context, from int) ([]sim.TraceEvent, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= from && !j.done && ctx.Err() == nil {
		j.cond.Wait()
	}
	if ctx.Err() != nil {
		return nil, true
	}
	out := make([]sim.TraceEvent, len(j.events)-from)
	copy(out, j.events[from:])
	return out, j.done && from+len(out) == len(j.events)
}

func (j *job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// summary is snapshot without the event trace, for listings: a full
// report of a hot run carries thousands of events.
func (j *job) summary() jobStatus {
	st := j.snapshot()
	if st.Report != nil && st.Report.Trace != nil {
		rep := *st.Report
		rep.Trace = nil
		st.Report = &rep
	}
	return st
}

func (j *job) isDone() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// errTooManyJobs is the backpressure signal of the job manager.
var errTooManyJobs = fmt.Errorf("too many jobs executing; retry later")

// jobManager tracks jobs by id and persists their lifecycle through a
// jobstore.Store. Finished jobs are retained (newest first) up to
// maxJobs; concurrent executions are capped at maxRunning so a request
// burst cannot spawn unbounded goroutines.
type jobManager struct {
	mu         sync.Mutex
	seq        uint64
	jobs       map[string]*job
	order      []string // creation order, for eviction
	maxJobs    int
	maxRunning int

	store    jobstore.Store
	ckptRoot string // per-job checkpoint directories ("" = volatile)

	storeErrors atomic.Uint64
}

// newJobManager builds a manager over the given durable store. Job
// numbering continues from the store's watermark, so ids stay unique
// across restarts.
func newJobManager(store jobstore.Store, ckptRoot string) *jobManager {
	return &jobManager{
		jobs: make(map[string]*job), maxJobs: 512, maxRunning: 32,
		store: store, ckptRoot: ckptRoot, seq: store.MaxSeq(),
	}
}

// ckptDir returns the checkpoint directory of one job, or "" when the
// manager runs volatile.
func (m *jobManager) ckptDir(id string) string {
	if m.ckptRoot == "" {
		return ""
	}
	return filepath.Join(m.ckptRoot, "jobs", id)
}

// newCheckpointStore opens the job's checkpoint store: fingerprinted
// files under the store root, or a volatile store without one.
// retention > 0 bounds the disk checkpoints kept (jobRequest.Retention
// — applied identically on admission and on restart-resume, so the
// bound survives the service dying).
func (m *jobManager) newCheckpointStore(id string, retention int) (*runtime.Store, error) {
	ck, err := runtime.NewStore(m.ckptDir(id))
	if err != nil {
		return nil, err
	}
	if retention > 0 {
		ck.SetRetention(retention)
	}
	return ck, nil
}

// persist appends one record, counting failures rather than
// propagating them into the execution path: a full disk must degrade
// durability, not abort runs. It reports whether the record was
// committed, so callers can avoid destroying state (checkpoint
// directories) whose durable record did not reach its terminal form.
func (m *jobManager) persist(rec jobstore.Record) bool {
	if err := m.store.Append(rec); err != nil {
		m.storeErrors.Add(1)
		return false
	}
	return true
}

// transition bumps the job's record version, applies mut, and persists
// the result, reporting whether the append was committed. A recorder
// attached to the job sees every transition, normalized, in order.
func (m *jobManager) transition(j *job, mut func(*jobstore.Record)) bool {
	j.mu.Lock()
	j.rec.Version++
	j.rec.UpdatedAt = time.Now().UTC()
	mut(&j.rec)
	rec := j.rec
	recorder := j.recorder
	j.mu.Unlock()
	if recorder != nil {
		recorder.Lifecycle(rec)
	}
	return m.persist(rec)
}

// create registers a new job and persists its created and planned
// transitions (the schedule is already known: planning precedes
// admission). reqSeed is the client's requested RNG seed; 0 derives one
// from the job's sequence number. The resolved seed is returned and
// travels in the durable record, so a failed run can always be
// reproduced from its journal alone.
func (m *jobManager) create(st jobStatus, spec, sched json.RawMessage, fingerprint string, reqSeed uint64) (*job, uint64, error) {
	m.mu.Lock()
	running := 0
	for _, j := range m.jobs {
		if !j.isDone() {
			running++
		}
	}
	if running >= m.maxRunning {
		m.mu.Unlock()
		return nil, 0, errTooManyJobs
	}
	evicted := m.evictLocked()
	m.seq++
	seq := m.seq
	seed := reqSeed
	if seed == 0 {
		seed = seq
	}
	st.ID = fmt.Sprintf("job-%d", seq)
	st.Status = "running"
	st.CreatedAt = time.Now().UTC()
	rec := jobstore.Record{
		ID: st.ID, Seq: seq, Version: 2, State: jobstore.StatePlanned,
		CreatedAt: st.CreatedAt, UpdatedAt: st.CreatedAt,
		Fingerprint: fingerprint, Algorithm: st.Algorithm, Adaptive: st.Adaptive,
		Seed: seed, Spec: spec, Schedule: sched, Predicted: st.Predicted,
	}
	j := newJob(st, rec)
	m.jobs[st.ID] = j
	m.order = append(m.order, st.ID)
	m.mu.Unlock()

	// All disk work — tombstoning and checkpoint cleanup for evicted
	// jobs, the fsync'd created/planned appends — happens outside the
	// manager lock, so durability never serializes the whole job API
	// behind the disk.
	for _, id := range evicted {
		if err := m.store.Delete(id); err != nil {
			m.storeErrors.Add(1)
		}
		if dir := m.ckptDir(id); dir != "" {
			os.RemoveAll(dir)
		}
	}
	created := rec
	created.Version, created.State = 1, jobstore.StateCreated
	created.Schedule, created.Predicted = nil, 0
	m.persist(created)
	m.persist(rec)
	return j, seed, nil
}

// initialRecords reconstructs the created/planned pair create persisted
// for j, in order — what a recorder attached after admission must see
// first.
func (j *job) initialRecords() []jobstore.Record {
	planned := j.record()
	created := planned
	created.Version, created.State = 1, jobstore.StateCreated
	created.Schedule, created.Predicted = nil, 0
	return []jobstore.Record{created, planned}
}

// adopt re-registers a job replayed from the durable store without
// starting an execution — the restart path for terminal records. The
// persisted report (trace-free) is restored into the listing.
func (m *jobManager) adopt(rec jobstore.Record) *job {
	st := jobStatus{
		ID: rec.ID, Status: string(rec.State), Adaptive: rec.Adaptive,
		Algorithm: rec.Algorithm, Predicted: rec.Predicted,
		Resumes: rec.Resumes, CreatedAt: rec.CreatedAt, Error: rec.Error,
	}
	if len(rec.Report) > 0 {
		var rep runtime.Report
		if err := json.Unmarshal(rec.Report, &rep); err == nil {
			st.Report = &rep
		}
	}
	j := newJob(st, rec)
	j.done = true
	m.mu.Lock()
	if rec.Seq > m.seq {
		m.seq = rec.Seq
	}
	m.jobs[rec.ID] = j
	m.order = append(m.order, rec.ID)
	m.mu.Unlock()
	return j
}

// adoptRunning re-registers an interrupted job as running again,
// persisting a running transition with the (possibly re-spliced)
// schedule and bumped resume counter.
func (m *jobManager) adoptRunning(rec jobstore.Record, sched json.RawMessage) *job {
	rec.Resumes++
	st := jobStatus{
		ID: rec.ID, Status: "running", Adaptive: rec.Adaptive,
		Algorithm: rec.Algorithm, Predicted: rec.Predicted,
		Resumes: rec.Resumes, CreatedAt: rec.CreatedAt,
	}
	j := newJob(st, rec)
	m.mu.Lock()
	if rec.Seq > m.seq {
		m.seq = rec.Seq
	}
	m.jobs[rec.ID] = j
	m.order = append(m.order, rec.ID)
	m.mu.Unlock()
	m.transition(j, func(r *jobstore.Record) {
		r.State = jobstore.StateRunning
		if sched != nil {
			r.Schedule = sched
		}
	})
	return j
}

// evictLocked drops the oldest finished jobs beyond the retention
// bound from the in-memory map, returning their ids; caller holds m.mu
// and performs the disk half (store tombstone, checkpoint-directory
// removal) after releasing it.
func (m *jobManager) evictLocked() []string {
	var evicted []string
	for len(m.jobs) >= m.maxJobs {
		found := false
		for i, id := range m.order {
			if j, ok := m.jobs[id]; ok && j.isDone() {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = append(evicted, id)
				found = true
				break
			}
		}
		if !found {
			break // everything retained is still running
		}
	}
	return evicted
}

// progress persists one running(progress) transition: the boundary just
// committed to disk, the estimator evidence at that moment, and the
// schedule currently executing — adaptive suffix splices must reach the
// journal, or a restart would resume against the original schedule and
// miscount its disk-checkpoint budget. The schedule is marshaled here,
// synchronously on the execution goroutine, because the supervisor may
// splice it right after the hook returns.
func (m *jobManager) progress(j *job, boundary int, est runtime.EstimatorState, sched *schedule.Schedule) {
	estJSON, err := json.Marshal(est)
	if err != nil {
		estJSON = nil
	}
	schedJSON, schedErr := json.Marshal(sched)
	m.transition(j, func(r *jobstore.Record) {
		r.State = jobstore.StateRunning
		r.Progress = boundary
		r.Estimator = estJSON
		if schedErr == nil {
			r.Schedule = schedJSON
		}
	})
}

// finish seals the job and persists its terminal transition. The
// persisted report drops the trace (the event log of a long run dwarfs
// the record); the in-memory job keeps it for /events followers. A
// finished job's checkpoints are garbage and their directory is
// removed.
func (m *jobManager) finish(j *job, rep *runtime.Report, err error) {
	j.finish(rep, err)
	st := j.snapshot()
	var repJSON json.RawMessage
	if rep != nil {
		trimmed := *rep
		trimmed.Trace = nil
		if b, merr := json.Marshal(&trimmed); merr == nil {
			repJSON = b
		}
	}
	persisted := m.transition(j, func(r *jobstore.Record) {
		switch st.Status {
		case "done":
			r.State = jobstore.StateDone
		case "cancelled":
			r.State = jobstore.StateCancelled
		default:
			r.State = jobstore.StateFailed
		}
		r.Error = st.Error
		r.Report = repJSON
		if rep != nil {
			r.Progress = rep.FinalSchedule.Len()
		}
	})
	// Only discard the checkpoints once the terminal record is durable:
	// if the append failed (store closed mid-shutdown, disk full), the
	// record still says running and the next boot must be able to resume
	// from these files instead of re-executing the chain.
	if dir := m.ckptDir(st.ID); dir != "" && persisted {
		os.RemoveAll(dir)
	}
}

func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

func (m *jobManager) list() []jobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]jobStatus, 0, len(m.jobs))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j.summary())
		}
	}
	return out
}

func (m *jobManager) counts() (total, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.done {
			running++
		}
		j.mu.Unlock()
	}
	return len(m.jobs), running
}

// launch starts the job's execution goroutine, wiring the event
// observer, the durable progress hook and the cancel handle. A recorder
// attached to the job is chained into both hooks and sealed once the
// terminal transition is journaled, so its recording carries the full
// lifecycle including how the job ended.
//
// The execution also roots a trace under the job's id: the span rides
// the context into the supervisor, which hangs its per-task, verify,
// checkpoint-commit, recovery and re-plan spans below it — the tree
// GET /v1/jobs/{id}/spans serves. Spans measure wall time only and
// never touch the recorder, so the replay recording stays byte-stable
// with tracing on or off.
func (s *server) launch(j *job, runJob runtime.Job, adaptive bool) {
	ctx, cancel := context.WithCancel(context.Background())
	j.setCancel(cancel)
	root := s.obs.jobTracer.StartTrace(j.snapshot().ID, "job")
	if root != nil {
		root.SetAttr("algorithm", string(runJob.Algorithm))
		if adaptive {
			root.SetAttr("adaptive", "true")
		}
		if runJob.Resume {
			root.SetAttr("resume", "true")
		}
		ctx = obs.ContextWithSpan(ctx, root)
	}
	recorder := j.getRecorder()
	runJob.Observer = j.append
	runJob.Record = true
	if recorder != nil {
		runJob.Observer = func(ev sim.TraceEvent) {
			recorder.Observe(ev)
			j.append(ev)
		}
	}
	runJob.Progress = func(b int, est runtime.EstimatorState, sched *schedule.Schedule) {
		if recorder != nil {
			recorder.Progress(b, est, sched)
		}
		s.jobs.progress(j, b, est, sched)
	}
	go func() {
		defer cancel()
		var rep *runtime.Report
		var err error
		if adaptive {
			rep, err = s.sup.RunAdaptive(ctx, runJob, runtime.AdaptPolicy{})
		} else {
			rep, err = s.sup.Run(ctx, runJob)
		}
		// Digest the checkpoint tier before finish: a finished job's
		// checkpoint directory is removed once its terminal record is
		// durable, and the recording must capture the tier as the run
		// left it.
		if recorder != nil {
			recorder.Checkpoints(runJob.Store)
		}
		s.jobs.finish(j, rep, err)
		if root != nil {
			root.SetAttr("status", j.snapshot().Status)
			root.End()
		}
		if recorder != nil {
			recording, ferr := recorder.Finish(rep, nil)
			var data []byte
			if ferr == nil {
				data, ferr = recording.Canonical()
			}
			// Publish the file before sealing: a client released by
			// the seal (GET /trace) may read the mirror at once.
			if ferr == nil {
				s.writeRecording(j.snapshot().ID, data)
			}
			j.sealRecording(data, ferr)
		}
		// finish classifies a cancel as "cancelled", which is not a
		// failure: only genuine failures feed the error-rate metric.
		if j.snapshot().Status == "failed" {
			s.jobErrors.Add(1)
		}
	}()
}

// writeRecording persists one finished recording under the record
// directory, when configured. The file appears whole or not at all.
func (s *server) writeRecording(id string, data []byte) {
	if s.recordDir == "" {
		return
	}
	if err := atomicfile.WriteFile(filepath.Join(s.recordDir, id+".json"), data, 0o644); err != nil {
		s.jobs.storeErrors.Add(1)
	}
}

// runnerName resolves the wire runner field to the recorded kind.
func runnerName(r string) string {
	if r == "" {
		return "sim"
	}
	return r
}

// jobFingerprint is the instance fingerprint as persisted in job
// records and recordings. engine.Fingerprint keys are raw hash bytes (a
// memo key, not a display string); hex-encode them here so the journal
// and the recording meta carry stable, printable JSON — raw bytes would
// be mangled into U+FFFD by the encoder and never round-trip.
func jobFingerprint(req engine.Request) string {
	raw, err := engine.Fingerprint(req)
	if err != nil {
		return ""
	}
	return hex.EncodeToString([]byte(raw))
}

// recorderMeta stamps a job's recording: the resolved seed, the
// instance fingerprints and the runtime knobs — everything a replay
// needs to recognize the run. The instance fingerprint is already hex
// (see jobFingerprint); rate-misspecification scales only apply to the
// sim runner.
func recorderMeta(jr *jobRequest, seed uint64, algorithm, instance string,
	c *chain.Chain, sched *schedule.Schedule, resume bool) replay.Meta {
	m := replay.Meta{
		Seed: seed, Algorithm: algorithm, Runner: runnerName(jr.Runner),
		Adaptive: jr.Adaptive, Resume: resume,
		ChainFingerprint: replay.ChainFingerprint(c),
		Instance:         instance,
	}
	if m.Runner == "sim" {
		m.ScaleF, m.ScaleS = jr.ScaleF, jr.ScaleS
	}
	if sched != nil {
		m.ScheduleFingerprint = replay.ScheduleFingerprint(sched)
	}
	return m
}

func (s *server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var jr jobRequest
	if err := decodeJSON(r, &jr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := jr.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jr.normalize()
	req, c, err := jr.toEngine()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Plan up front (through the shared memo) so the job status can show
	// the model prediction from the start, and budget/cost options apply.
	res, err := s.eng.Plan(r.Context(), req)
	if err != nil {
		s.planErrors.Add(1)
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	// The normalized spec is the job's durable identity: a restart
	// recompiles the chain, platform and runner from exactly these
	// bytes.
	spec, err := json.Marshal(&jr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	schedJSON, err := json.Marshal(res.Schedule)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	fingerprint := jobFingerprint(req)

	j, seed, err := s.jobs.create(jobStatus{
		Adaptive:  jr.Adaptive,
		Algorithm: string(res.Algorithm),
		Predicted: res.ExpectedMakespan,
	}, spec, schedJSON, fingerprint, jr.Seed)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	ck, err := s.jobs.newCheckpointStore(j.snapshot().ID, jr.Retention)
	if err != nil {
		s.jobs.finish(j, nil, err)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	j.attachRecorder(replay.NewRecorder(recorderMeta(
		&jr, seed, string(res.Algorithm), fingerprint, c, res.Schedule, false,
	)), j.initialRecords()...)
	s.launch(j, runtime.Job{
		Chain:              c,
		Platform:           req.Platform,
		Schedule:           res.Schedule,
		Algorithm:          req.Algorithm,
		Costs:              req.Opts.Costs,
		MaxDiskCheckpoints: req.Opts.MaxDiskCheckpoints,
		Runner:             jr.newRunner(req.Platform, seed),
		Store:              ck,
	}, jr.Adaptive)

	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

// handleJobCancel stops a running job; its terminal state is persisted
// as cancelled. Cancelling a job that already reached a terminal state
// is a conflict, not a success: the response is 409 with the terminal
// state in the body, so an at-least-once cancel client can tell "I
// stopped it" (202) apart from "it had already ended as X" instead of
// mistaking a done job for a cancelled one.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if j.requestCancel() {
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "cancelling"})
		return
	}
	writeJSON(w, http.StatusConflict, j.summary())
}

// handleJobTrace serves the job's sealed replay recording in canonical
// JSON form: the full event-sourced capture of the execution (trace
// frames, estimator snapshots, checkpoint digests, normalized lifecycle
// records, normalized report). The recording carries no job id and no
// timestamps, so two runs of the same spec with the same explicit seed
// answer with byte-identical bodies — the property the replay CI gate
// diffs. Blocks until the run is sealed; 409 for jobs adopted from a
// previous service life (their execution was never recorded).
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	// Unblock waitRecording when the client disconnects.
	ctx := r.Context()
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	data, err := j.waitRecording(ctx)
	switch {
	case errors.Is(err, errNoRecording):
		writeError(w, http.StatusConflict, err)
	case ctx.Err() != nil:
		return // client went away
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	}
}

// handleJobEvents streams the job's event log as NDJSON, following the
// execution live until it completes (or the client goes away).
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Unblock next() when the client disconnects.
	ctx := r.Context()
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	enc := json.NewEncoder(w)
	from := 0
	for {
		events, done := j.next(ctx, from)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		from += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
	}
}
