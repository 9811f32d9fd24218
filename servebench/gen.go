package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"chainckpt/internal/chain"
	"chainckpt/internal/core"
	"chainckpt/internal/engine"
	"chainckpt/internal/platform"
	"chainckpt/internal/workload"
)

// planReq is the wire shape of a POST /v1/plan body, restricted to the
// fields the generator sets.
type planReq struct {
	Algorithm          string             `json:"algorithm"`
	Platform           string             `json:"platform,omitempty"`
	PlatformSpec       *platform.Platform `json:"platform_spec,omitempty"`
	Pattern            string             `json:"pattern"`
	N                  int                `json:"n"`
	Total              float64            `json:"total"`
	MaxDiskCheckpoints int                `json:"max_disk_checkpoints,omitempty"`
}

// batchReq is the wire shape of a POST /v1/plan/batch body.
type batchReq struct {
	Requests []planReq `json:"requests"`
}

// request is one generated operation.
type request struct {
	class string // plan-miss class name or "hot"
	key   int    // plan-hot: index into workloadSpec.batches
	plan  planReq
	path  string // POST route
	body  []byte // the marshaled request body
}

// workloadSpec is everything one run sends, fixed by (name, seed, seconds).
type workloadSpec struct {
	name    string
	clients int
	batches []request // plan-hot: the distinct batches the ops cycle through
	warm    []request // warm-up pass, inside setup_s, never measured
	ops     []request // the measured list
}

// missClass is one fixed class of the plan-miss mix. The DP's work
// depends only on (algorithm, n, budget), never on the weights or the
// platform, so every seed gives a list of the same cost.
type missClass struct {
	name   string
	alg    core.Algorithm
	n      int
	budget int
}

// missClasses are the plan-miss classes. Both ADV* classes keep the
// segment tables (7·(n+1)² float64s: 3.3 MB at n=240, 3.7 MB at n=256)
// beyond a 2 MiB L2 while staying in the kernel's 256 scratch bucket:
// above n=256 every solve draws a 23 MB arena from the 512 bucket, and
// when the garbage collector happens to free those decides the server's
// peak RSS, which then swings ±20% from process to process. The
// budgeted class takes the checkpoint-budget axis, ADMV* the memory
// level and ADMV the partial-verification (epartial) path. Each class
// solves in 10-100 ms.
//
// The sizes also place the latency percentiles inside one class each.
// In missCycle's mix ADMV (about 12 ms) is the fastest 40% of ops and
// ADMV* at n=80 (about 40 ms) the next 20%, so latency_p50_ms is the
// middle of the ADMV* class; the two ADV* classes (55-100 ms) are the
// slowest 40%, and latency_p90_ms sits among them. A percentile on the
// border of two classes of similar speed would jump between them with
// their relative speed from run to run.
var missClasses = []missClass{
	{name: "adv", alg: core.AlgADV, n: 240},
	{name: "adv_budget", alg: core.AlgADV, n: 256, budget: 8},
	{name: "admvstar", alg: core.AlgADMVStar, n: 80},
	{name: "admv", alg: core.AlgADMV, n: 24},
}

// missCycle is the fixed interleaving of the plan-miss list, as indexes
// into missClasses: every cycle sends each class once and ADMV twice.
var missCycle = []int{0, 3, 1, 2, 3}

// jobPlatform is the platform of the job the traced run executes in
// process (the ReplayLab shape of the replay determinism gate): with
// these costs the optimal ADMV* schedule of a 24-task chain
// disk-checkpoints every boundary, so each job makes two dozen fsync'd
// checkpoint commits.
var jobPlatform = platform.Platform{
	Name: "ReplayLab", LambdaF: 1e-4, LambdaS: 4e-4,
	CD: 100, CM: 10, RD: 100, RM: 10, VStar: 10, V: 0.1, Recall: 0.8,
}

// Nominal rates of the list sizes: a list of s seconds holds s×rate
// ops. They only size the fixed list; the measurement never depends on
// the clock. hotKeys is the plan-hot working set, split into batches of
// hotBatch keys.
const (
	hotRate  = 1000
	missRate = 20
	hotKeys  = 64
	hotBatch = 16
)

var platformNames = []string{"Hera", "Atlas", "Coastal", "CoastalSSD"}

var patternNames = []workload.Pattern{workload.PatternUniform, workload.PatternDecrease, workload.PatternHighLow}

// Stream identifiers keep the RNG draws of the plan-hot keys, the
// warm-up list, the measured list, the check sample and the in-process
// job seeds independent.
const (
	streamKeys = iota + 1
	streamWarm
	streamOps
	streamCheck
	streamJobs
)

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// generate builds the fixed request lists of one workload, its measured
// list sized to about `seconds` of load.
func generate(name string, seed uint64, seconds float64) (*workloadSpec, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %v", seconds)
	}
	switch name {
	case "plan-hot":
		return genHot(seed, seconds)
	case "plan-miss":
		return genMiss(seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want plan-hot or plan-miss)", name)
}

// randomInstance draws the seeded parts of an instance: platform,
// pattern and total weight.
func randomInstance(rng *rand.Rand, alg core.Algorithm, n, budget int) planReq {
	return planReq{
		Algorithm:          string(alg),
		Platform:           platformNames[rng.IntN(len(platformNames))],
		Pattern:            string(patternNames[rng.IntN(len(patternNames))]),
		N:                  n,
		Total:              math.Round((5000+45000*rng.Float64())*1000) / 1000,
		MaxDiskCheckpoints: budget,
	}
}

// distinct draws instances until one has a fingerprint not in seen, so
// no two instances of a list share a memo entry.
func distinct(rng *rand.Rand, seen map[string]bool, alg core.Algorithm, n, budget int) (planReq, error) {
	for range 64 {
		pr := randomInstance(rng, alg, n, budget)
		fp, err := fingerprint(pr)
		if err != nil {
			return pr, err
		}
		if !seen[fp] {
			seen[fp] = true
			return pr, nil
		}
	}
	return planReq{}, fmt.Errorf("no distinct %s n=%d instance after 64 draws", alg, n)
}

// genHot makes plan-hot: hotKeys distinct instances, each planned by
// one /v1/plan request of the warm-up pass. A measured op sends a batch
// of them to /v1/plan/batch, so it costs many memo hits and one
// response encoding for one round trip. The ops cycle through the
// hotKeys/hotBatch batches a seeded permutation makes, then one batch
// of all hotKeys: the whole-set batches, four times the work, are the
// slowest 20% of ops, so latency_p90_ms is the middle of their class
// rather than the tail of the smaller batches, which garbage collection
// and the host's scheduling stretch from run to run.
func genHot(seed uint64, seconds float64) (*workloadSpec, error) {
	w := &workloadSpec{name: "plan-hot", clients: 2}
	rng := newRNG(seed, streamKeys)
	seen := map[string]bool{}
	for i := range hotKeys {
		// n and algorithm are fixed per key index, so every seed plans
		// the same amount of work during warm-up.
		alg := core.AlgADV
		if i%2 == 1 {
			alg = core.AlgADMVStar
		}
		pr, err := distinct(rng, seen, alg, 50+i*50/(hotKeys-1), 0)
		if err != nil {
			return nil, err
		}
		w.warm = append(w.warm, newPlanRequest("hot", pr))
	}
	perm := newRNG(seed, streamOps).Perm(hotKeys)
	batch := func(keys []int) request {
		var br batchReq
		for _, k := range keys {
			br.Requests = append(br.Requests, w.warm[k].plan)
		}
		body, _ := json.Marshal(br)
		return request{class: "hot", key: len(w.batches), path: "/v1/plan/batch", body: body}
	}
	for b := range hotKeys / hotBatch {
		w.batches = append(w.batches, batch(perm[b*hotBatch:(b+1)*hotBatch]))
	}
	w.batches = append(w.batches, batch(perm))
	for i := range int(seconds * hotRate) {
		w.ops = append(w.ops, w.batches[i%len(w.batches)])
	}
	return w, nil
}

func genMiss(seed uint64, seconds float64) (*workloadSpec, error) {
	w := &workloadSpec{name: "plan-miss", clients: 1}
	seen := map[string]bool{}
	fill := func(rng *rand.Rand, count int) ([]request, error) {
		out := make([]request, 0, count)
		for i := range count {
			cl := missClasses[missCycle[i%len(missCycle)]]
			pr, err := distinct(rng, seen, cl.alg, cl.n, cl.budget)
			if err != nil {
				return nil, err
			}
			out = append(out, newPlanRequest(cl.name, pr))
		}
		return out, nil
	}
	var err error
	if w.warm, err = fill(newRNG(seed, streamWarm), 2*len(missCycle)); err != nil {
		return nil, err
	}
	if w.ops, err = fill(newRNG(seed, streamOps), int(seconds*missRate)); err != nil {
		return nil, err
	}
	return w, nil
}

// jobSeeds draws count distinct, non-zero runner seeds for the
// in-process jobs of a traced run.
func jobSeeds(seed uint64, count int) []uint64 {
	rng := newRNG(seed, streamJobs)
	seen := map[uint64]bool{0: true}
	out := make([]uint64, 0, count)
	for len(out) < count {
		s := rng.Uint64()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func newPlanRequest(class string, pr planReq) request {
	body, _ := json.Marshal(pr) // plain structs of strings and numbers always marshal
	return request{class: class, plan: pr, path: "/v1/plan", body: body}
}

// jobInstance is the fixed instance of the in-process jobs.
func jobInstance() planReq {
	spec := jobPlatform
	return planReq{Algorithm: string(core.AlgADMVStar), PlatformSpec: &spec,
		Pattern: string(workload.PatternUniform), N: 24, Total: 24000}
}

// compile turns a generated request into the engine request chainserve
// builds from the same body.
func compile(pr planReq) (engine.Request, *chain.Chain, error) {
	var plat platform.Platform
	if pr.PlatformSpec != nil {
		plat = *pr.PlatformSpec
	} else {
		p, err := platform.ByName(pr.Platform)
		if err != nil {
			return engine.Request{}, nil, err
		}
		plat = p
	}
	c, err := workload.Generate(workload.Pattern(pr.Pattern), pr.N, pr.Total)
	if err != nil {
		return engine.Request{}, nil, err
	}
	return engine.Request{
		Algorithm: core.Algorithm(pr.Algorithm), Chain: c, Platform: plat,
		Opts: core.Options{MaxDiskCheckpoints: pr.MaxDiskCheckpoints},
	}, c, nil
}

// fingerprint is the engine memo key chainserve derives from pr.
func fingerprint(pr planReq) (string, error) {
	req, _, err := compile(pr)
	if err != nil {
		return "", err
	}
	return engine.Fingerprint(req)
}
