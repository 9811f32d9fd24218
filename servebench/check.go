package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"chainckpt/internal/core"
	"chainckpt/internal/evaluate"
	"chainckpt/internal/schedule"
)

// planResp mirrors chainserve's plan response field for field, so an
// in-process solve encodes to the very bytes the server sends.
type planResp struct {
	Tag                string             `json:"tag,omitempty"`
	Algorithm          string             `json:"algorithm,omitempty"`
	ExpectedMakespan   float64            `json:"expected_makespan,omitempty"`
	NormalizedMakespan float64            `json:"normalized_makespan,omitempty"`
	Counts             *schedule.Counts   `json:"counts,omitempty"`
	Schedule           *schedule.Schedule `json:"schedule,omitempty"`
	Cached             bool               `json:"cached,omitempty"`
	Error              string             `json:"error,omitempty"`
}

// encodeLikeServer renders res the way chainserve's writeJSON does.
func encodeLikeServer(res *core.Result, totalWeight float64) []byte {
	counts := res.Schedule.Counts()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(planResp{
		Algorithm:          string(res.Algorithm),
		ExpectedMakespan:   res.ExpectedMakespan,
		NormalizedMakespan: res.ExpectedMakespan / totalWeight,
		Counts:             &counts,
		Schedule:           res.Schedule,
	})
	return buf.Bytes()
}

// sampleEvery is the plan-miss byte-compare sampling rate: one op in
// sampleEvery, at a seeded offset, is re-solved in process.
const sampleEvery = 16

// checkMiss verifies every plan-miss response: a complete, valid
// schedule for the instance, never served from the memo, whose exact
// model makespan (evaluate.Exact) equals expected_makespan within 1e-9
// relative (ADMV: see checkMissOp); and a
// seeded sample of responses equals an in-process Kernel solve byte for
// byte. A failed check fails its op.
func checkMiss(ops []request, results []result, seed uint64) {
	kernel := core.NewKernel()
	offset := newRNG(seed, streamCheck).IntN(sampleEvery)
	for i := range results {
		if results[i].err == nil {
			if err := checkMissOp(kernel, ops[i], results[i].body, i%sampleEvery == offset); err != nil {
				results[i].err = fmt.Errorf("plan-miss op %d (%s, %s %s n=%d total=%v): %w", i, ops[i].class,
					ops[i].plan.Platform, ops[i].plan.Pattern, ops[i].plan.N, ops[i].plan.Total, err)
			}
		}
		results[i].body = nil
	}
}

func checkMissOp(kernel *core.Kernel, rq request, body []byte, sample bool) error {
	var resp planResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode plan: %w", err)
	}
	if resp.Cached {
		return fmt.Errorf("plan-miss op served from the memo")
	}
	req, c, err := compile(rq.plan)
	if err != nil {
		return err
	}
	if resp.Schedule == nil || resp.Schedule.Len() != c.Len() {
		return fmt.Errorf("schedule missing or of the wrong length")
	}
	if err := resp.Schedule.ValidateComplete(); err != nil {
		return err
	}
	if got := resp.Schedule.Counts(); resp.Counts == nil || *resp.Counts != got {
		return fmt.Errorf("counts %+v do not match the schedule's %+v", resp.Counts, got)
	}
	exact, err := evaluate.Exact(c, req.Platform, resp.Schedule)
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	tol := 1e-9
	if req.Algorithm == core.AlgADMV {
		// The paper's ADMV recurrence approximates the expectation of a
		// segment with partial verifications (Section III-B), so its value
		// matches the exact model only to the 1e-4 the evaluate package's
		// own oracle test allows; it must still equal the paper's closed
		// forms on the returned schedule to 1e-9.
		tol = 1e-4
		closed, err := core.Evaluate(c, req.Platform, resp.Schedule)
		if err != nil {
			return fmt.Errorf("closed-form evaluate: %w", err)
		}
		if !near(closed, resp.ExpectedMakespan, 1e-9) {
			return fmt.Errorf("expected_makespan %v, closed-form evaluation %v", resp.ExpectedMakespan, closed)
		}
	}
	if !near(exact, resp.ExpectedMakespan, tol) {
		return fmt.Errorf("expected_makespan %v, exact evaluation %v", resp.ExpectedMakespan, exact)
	}
	if !sample {
		return nil
	}
	opts := req.Opts
	opts.SolveWorkers = 1
	res, err := kernel.PlanOpts(req.Algorithm, c, req.Platform, opts)
	if err != nil {
		return fmt.Errorf("in-process solve: %w", err)
	}
	if want := encodeLikeServer(res, c.TotalWeight()); !bytes.Equal(body, want) {
		return fmt.Errorf("response differs from the in-process solve:\n%s\nwant:\n%s", body, want)
	}
	return nil
}

// near reports whether got is within rel of want, relatively.
func near(want, got, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}

// jobSchedule plans the in-process job instance.
func jobSchedule() (*schedule.Schedule, error) {
	req, c, err := compile(jobInstance())
	if err != nil {
		return nil, err
	}
	res, err := core.NewKernel().PlanOpts(req.Algorithm, c, req.Platform, req.Opts)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}
