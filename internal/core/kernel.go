package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"chainckpt/internal/chain"
	"chainckpt/internal/platform"
)

// scratch owns every working array one planning run needs: the
// per-segment exponential tables, the window prefix weights, and (built
// lazily, since Evaluator only needs the tables) the dynamic-program
// arenas of run, memLevel and reconstruct. A scratch serves any window of
// up to cap tasks; a Kernel recycles scratches across solves so repeated
// planning allocates nothing beyond its results.
type scratch struct {
	cap    int
	tables []float64 // 7*(cap+1)^2 backing of the segment tables
	pre    []float64 // cap+1 window prefix weights
	dp     *dpScratch
}

// dpScratch holds the arenas of the dynamic program proper.
type dpScratch struct {
	ememHdr [][]float64 // cap row headers; nil marks a forbidden disk spot
	ememBuf []float64   // cap*(cap+1)
	mprvHdr [][]int
	mprvBuf []int       // cap*(cap+1)
	edskHdr [][]float64 // cap+1 row headers of the disk level
	edskBuf []float64   // (cap+1)^2
	dprvHdr [][]int
	dprvBuf []int // (cap+1)^2

	// reconstruct scratch: one verification row with argmins, the three
	// position stacks of the walk-back, and the ADMV partial scratch.
	row              []float64
	arg              []int
	posD, posM, posV []int
	rpartial         *partialScratch

	mu  sync.Mutex
	mem []*memScratch // free list for memLevel workers
}

// memScratch is the per-goroutine arena of one memLevel call: the lazy
// verification rows and, for ADMV, the partial-verification scratch.
type memScratch struct {
	rows    [][]float64 // cap+1 headers
	rowBuf  []float64   // (cap+1)^2
	partial *partialScratch
}

// newScratch allocates a scratch serving windows of up to cap tasks.
func newScratch(cap int) *scratch {
	size := (cap + 1) * (cap + 1)
	return &scratch{
		cap:    cap,
		tables: make([]float64, 7*size),
		pre:    make([]float64, cap+1),
	}
}

// ensureDP builds the dynamic-program arenas on first use. n is only
// checked against the capacity; the arenas are always sized for cap.
func (sc *scratch) ensureDP(n int) *dpScratch {
	if n > sc.cap {
		panic(fmt.Sprintf("core: scratch capacity %d exceeded by window of %d tasks", sc.cap, n))
	}
	if sc.dp == nil {
		c := sc.cap
		size := (c + 1) * (c + 1)
		sc.dp = &dpScratch{
			ememHdr: make([][]float64, c),
			ememBuf: make([]float64, c*(c+1)),
			mprvHdr: make([][]int, c),
			mprvBuf: make([]int, c*(c+1)),
			edskHdr: make([][]float64, c+1),
			edskBuf: make([]float64, size),
			dprvHdr: make([][]int, c+1),
			dprvBuf: make([]int, size),
			row:     make([]float64, c+1),
			arg:     make([]int, c+1),
			posD:    make([]int, 0, c+1),
			posM:    make([]int, 0, c+1),
			posV:    make([]int, 0, c+1),
		}
	}
	return sc.dp
}

// getMem hands out a memLevel arena, recycling returned ones. Safe for
// the solver's concurrent per-disk-position workers.
func (sc *scratch) getMem(n int, needPartial bool) *memScratch {
	dp := sc.ensureDP(n)
	dp.mu.Lock()
	var ms *memScratch
	if k := len(dp.mem); k > 0 {
		ms = dp.mem[k-1]
		dp.mem = dp.mem[:k-1]
	}
	dp.mu.Unlock()
	if ms == nil {
		ms = &memScratch{
			rows:   make([][]float64, sc.cap+1),
			rowBuf: make([]float64, (sc.cap+1)*(sc.cap+1)),
		}
	}
	if needPartial && ms.partial == nil {
		ms.partial = newPartialScratch(sc.cap)
	}
	return ms
}

func (sc *scratch) putMem(ms *memScratch) {
	sc.dp.mu.Lock()
	sc.dp.mem = append(sc.dp.mem, ms)
	sc.dp.mu.Unlock()
}

// prewarm builds the lazy parts of an arena ahead of its first solve:
// the dynamic-program buffers plus one memLevel arena per prospective
// team member, partial scratch included. Tune uses it so the first
// parallel solve through a fresh exact pool finds width arenas on the
// free list instead of W workers all allocating (cap+1)^2 row buffers
// at once.
func (sc *scratch) prewarm(width int) {
	if width < 1 {
		width = 1
	}
	dp := sc.ensureDP(sc.cap)
	dp.mu.Lock()
	have := len(dp.mem)
	dp.mu.Unlock()
	for ; have < width; have++ {
		ms := &memScratch{
			rows:    make([][]float64, sc.cap+1),
			rowBuf:  make([]float64, (sc.cap+1)*(sc.cap+1)),
			partial: newPartialScratch(sc.cap),
		}
		sc.putMem(ms)
	}
}

// reconPartial returns the reconstruct pass's ADMV partial scratch.
func (sc *scratch) reconPartial() *partialScratch {
	dp := sc.dp
	if dp.rpartial == nil {
		dp.rpartial = newPartialScratch(sc.cap)
	}
	return dp.rpartial
}

// Kernel is a long-lived, reusable solver kernel: it owns size-bucketed
// pools of scratch arenas (capacities are rounded up to powers of two),
// so repeated planning through one kernel is allocation-free in the
// dynamic program. All methods are safe for concurrent use; concurrent
// solves simply draw distinct arenas from the pools.
//
// The package-level Plan* functions are thin wrappers over DefaultKernel;
// long-running services (internal/engine, internal/runtime) own their
// kernel so their pool statistics are observable in isolation.
type Kernel struct {
	solves  atomic.Uint64
	buckets [48]kernelBucket
	// exact maps hot window lengths to exact-capacity pools installed by
	// Tune; nil (or missing entries) fall through to the power-of-two
	// buckets. Replaced wholesale by Tune, never mutated in place.
	exact atomic.Pointer[map[int]*kernelBucket]

	// sizes is the per-window-length solve histogram Tune consumes; the
	// map is bounded so hostile traffic cannot grow it without limit.
	sizeMu sync.Mutex
	sizes  map[int]uint64

	// tuneMu serializes Tune's load-build-store of exact, so concurrent
	// tuners cannot silently discard each other's installed pools;
	// acquire/release stay lock-free on the atomic pointer.
	tuneMu sync.Mutex

	// retired* accumulate the counters of exact pools dropped by a
	// re-Tune, so Stats totals (and the Prometheus counters fed from
	// them) stay monotonic when the hot set shifts.
	retiredReuses, retiredFresh, retiredSolves atomic.Uint64

	// team is the kernel's persistent solve team: helper goroutines that
	// parallel solves (Options.SolveWorkers) tile their DP phases
	// across. Spawned lazily on the first parallel solve, shed after an
	// idle timeout; serial solves never touch it.
	team solveTeam
}

// kernelBucket pools scratches of one capacity class.
type kernelBucket struct {
	pool   sync.Pool
	reuses atomic.Uint64
	fresh  atomic.Uint64
	solves atomic.Uint64
}

// KernelStats is a snapshot of a kernel's pool counters.
type KernelStats struct {
	// Solves counts planning runs completed through the kernel.
	Solves uint64 `json:"solves"`
	// ScratchReuses counts solves served by a recycled arena.
	ScratchReuses uint64 `json:"scratch_reuses"`
	// ScratchFresh counts solves that had to allocate a new arena.
	ScratchFresh uint64 `json:"scratch_fresh"`
	// Buckets reports the per-capacity pools that have been touched,
	// including any exact-capacity pools installed by Tune (their Cap is
	// the exact window length, not a power of two).
	Buckets []KernelBucketStats `json:"buckets,omitempty"`
	// Sizes refines the bucket histogram to exact window lengths:
	// completed solves per n, hottest first (capped at the top 64
	// lengths). It is the input Tune uses to pick which sizes deserve an
	// exact-capacity pool.
	Sizes []KernelSizeStats `json:"sizes,omitempty"`
	// Parallel reports the kernel's solve-team counters.
	Parallel KernelParallelStats `json:"parallel"`
}

// KernelParallelStats snapshots the worker team of a kernel's parallel
// solves (Options.SolveWorkers). The observability plane projects these
// into the chainckpt_kernel_parallel_* metric families.
type KernelParallelStats struct {
	// Solves counts planning runs that engaged the team (resolved
	// worker count > 1).
	Solves uint64 `json:"solves"`
	// Tiles counts tiles dispatched to the team across all DP phases
	// (table build, memory levels, disk-level wavefronts).
	Tiles uint64 `json:"tiles"`
	// LocalTiles counts tiles claimed from the claimant's own span — the
	// owner-computes fast path that touches only worker-local cache
	// lines. Tiles - LocalTiles ran on stolen ranges.
	LocalTiles uint64 `json:"local_tiles"`
	// Steals counts steal events: half-span grabs by an idle participant
	// plus single leftover tiles claimed off a victim. Zero on a
	// perfectly balanced phase; the rebalancing traffic otherwise.
	Steals uint64 `json:"steals"`
	// BusySeconds accumulates the time solve participants (the calling
	// goroutine and every helper) spent executing tiles.
	BusySeconds float64 `json:"busy_seconds"`
	// CrossoverSkips counts auto-mode solves (SolveWorkers: 0) that
	// stayed serial — the window was below the crossover length or the
	// machine has a single core.
	CrossoverSkips uint64 `json:"crossover_skips"`
	// Workers is the current number of live helper goroutines (a gauge:
	// idle helpers retire after a timeout).
	Workers int `json:"workers"`
}

// KernelSizeStats is one exact window length's solve count.
type KernelSizeStats struct {
	// N is the window length in tasks.
	N int `json:"n"`
	// Solves counts completed planning runs of exactly this length.
	Solves uint64 `json:"solves"`
}

// KernelBucketStats is one capacity class of a kernel's scratch pool.
type KernelBucketStats struct {
	// Cap is the bucket's arena capacity in tasks (a power of two).
	Cap int `json:"cap"`
	// Reuses and Fresh count arena recycles and allocations.
	Reuses uint64 `json:"reuses"`
	Fresh  uint64 `json:"fresh"`
	// Solves counts completed planning runs whose window fell in this
	// size class — the workload histogram that tells which bucket sizes
	// real traffic actually hits, the input to workload-aware bucket
	// tuning (exact per-n pools for the hot sizes).
	Solves uint64 `json:"solves"`
}

// NewKernel returns an empty kernel. The zero cost of creating one makes
// a fresh kernel the natural way to benchmark the unpooled path.
func NewKernel() *Kernel { return &Kernel{} }

var (
	defaultKernelMu sync.Mutex
	defaultKernel   *Kernel
)

// DefaultKernel returns the shared process-wide kernel that the
// package-level Plan* functions solve through.
func DefaultKernel() *Kernel {
	defaultKernelMu.Lock()
	defer defaultKernelMu.Unlock()
	if defaultKernel == nil {
		defaultKernel = NewKernel()
	}
	return defaultKernel
}

// bucketIndex maps a window length to its capacity class: the smallest
// power of two >= max(n, 8).
func bucketIndex(n int) int {
	if n <= 8 {
		return 3
	}
	return bits.Len(uint(n - 1))
}

// bucketFor returns the pool serving an n-task window and the capacity
// its arenas are built with: the exact-capacity pool when Tune has
// installed one for n, the power-of-two bucket otherwise.
func (k *Kernel) bucketFor(n int) (*kernelBucket, int) {
	if m := k.exact.Load(); m != nil {
		if b, ok := (*m)[n]; ok {
			return b, n
		}
	}
	i := bucketIndex(n)
	return &k.buckets[i], 1 << i
}

// acquire draws an arena for an n-task window from the pools.
func (k *Kernel) acquire(n int) *scratch {
	b, cap := k.bucketFor(n)
	if sc, ok := b.pool.Get().(*scratch); ok {
		b.reuses.Add(1)
		return sc
	}
	b.fresh.Add(1)
	return newScratch(cap)
}

// release returns an arena to its pool. An exact-capacity arena whose
// pool a re-Tune has retired is dropped (it must not land in a
// power-of-two bucket, where a larger window would overflow it).
func (k *Kernel) release(sc *scratch) {
	if m := k.exact.Load(); m != nil {
		if b, ok := (*m)[sc.cap]; ok {
			b.pool.Put(sc)
			return
		}
	}
	if i := bucketIndex(sc.cap); sc.cap == 1<<i {
		k.buckets[i].pool.Put(sc)
	}
}

// noteSize records one completed solve of an n-task window in the
// per-length histogram.
func (k *Kernel) noteSize(n int) {
	k.sizeMu.Lock()
	if k.sizes == nil {
		k.sizes = make(map[int]uint64)
	}
	if _, ok := k.sizes[n]; ok || len(k.sizes) < 4096 {
		k.sizes[n]++
	}
	k.sizeMu.Unlock()
}

// Tune installs exact-capacity scratch pools for the hottest window
// lengths of hist.Sizes — workload-aware bucket tuning. A power-of-two
// bucket serves every n in (cap/2, cap] with arenas built for cap, so a
// hot odd size pays for arrays up to ~4x larger than it needs; an exact
// pool builds its arenas at precisely n (see ArenaBytes). Up to eight
// sizes are tuned, hottest first; lengths that are already powers of
// two are skipped (their bucket arena is already exact), and pools
// already installed for still-hot sizes are kept, warm arenas and
// counters intact. Tune is cheap and safe to call at any time — in
// the idiomatic self-tuning form k.Tune(k.Stats()), or with a histogram
// recorded by another kernel (a production mix replayed into a fresh
// process). Solves in flight keep the arenas they hold; their release
// routes by capacity, so no arena ever serves a window it cannot fit.
func (k *Kernel) Tune(hist KernelStats) {
	const topK = 8
	k.tuneMu.Lock()
	defer k.tuneMu.Unlock()
	old := k.exact.Load()
	m := make(map[int]*kernelBucket, topK)
	for _, s := range hist.Sizes {
		if len(m) >= topK {
			break
		}
		if s.N < 1 || s.Solves == 0 || s.N == 1<<bucketIndex(s.N) {
			continue
		}
		if old != nil {
			if b, ok := (*old)[s.N]; ok {
				m[s.N] = b
				continue
			}
		}
		b := &kernelBucket{}
		// Pre-size for the first solve: a warm exact arena with its DP
		// buffers built and one memLevel arena per member of the widest
		// team this kernel has run. A parallel solve draws W memLevel
		// arenas concurrently, so a pre-warm sized for one scratch per
		// solve would push W-1 fresh (cap+1)^2 allocations into the
		// first tuned solve.
		sc := newScratch(s.N)
		sc.prewarm(int(k.team.widest.Load()))
		b.pool.Put(sc)
		m[s.N] = b
	}
	// Fold the counters of pools this re-tune retires into the retired
	// accumulators before replacing the map: Stats totals must never go
	// backwards. (An in-flight solve holding a retired arena may still
	// bump the old bucket after the fold; that sliver is accepted.)
	if old != nil {
		for n, b := range *old {
			if _, kept := m[n]; kept {
				continue
			}
			k.retiredReuses.Add(b.reuses.Load())
			k.retiredFresh.Add(b.fresh.Load())
			k.retiredSolves.Add(b.solves.Load())
		}
	}
	k.exact.Store(&m)
}

// Stats returns a snapshot of the kernel's pool counters. Totals
// include the accumulated counters of exact pools retired by re-Tunes
// (their per-capacity rows disappear, but ScratchReuses/ScratchFresh
// stay monotonic).
func (k *Kernel) Stats() KernelStats {
	st := KernelStats{
		Solves:        k.solves.Load(),
		ScratchReuses: k.retiredReuses.Load(),
		ScratchFresh:  k.retiredFresh.Load(),
		Parallel: KernelParallelStats{
			Solves:         k.team.solves.Load(),
			Tiles:          k.team.tiles.Load(),
			LocalTiles:     k.team.localTiles.Load(),
			Steals:         k.team.steals.Load(),
			BusySeconds:    float64(k.team.busyNs.Load()) / 1e9,
			CrossoverSkips: k.team.skips.Load(),
			Workers:        k.team.liveWorkers(),
		},
	}
	for i := range k.buckets {
		r, f, s := k.buckets[i].reuses.Load(), k.buckets[i].fresh.Load(), k.buckets[i].solves.Load()
		if r == 0 && f == 0 && s == 0 {
			continue
		}
		st.ScratchReuses += r
		st.ScratchFresh += f
		st.Buckets = append(st.Buckets, KernelBucketStats{Cap: 1 << i, Reuses: r, Fresh: f, Solves: s})
	}
	if m := k.exact.Load(); m != nil {
		for cap, b := range *m {
			r, f, s := b.reuses.Load(), b.fresh.Load(), b.solves.Load()
			st.ScratchReuses += r
			st.ScratchFresh += f
			st.Buckets = append(st.Buckets, KernelBucketStats{Cap: cap, Reuses: r, Fresh: f, Solves: s})
		}
		sort.Slice(st.Buckets, func(i, j int) bool { return st.Buckets[i].Cap < st.Buckets[j].Cap })
	}
	k.sizeMu.Lock()
	for n, c := range k.sizes {
		st.Sizes = append(st.Sizes, KernelSizeStats{N: n, Solves: c})
	}
	k.sizeMu.Unlock()
	sort.Slice(st.Sizes, func(i, j int) bool {
		a, b := st.Sizes[i], st.Sizes[j]
		if a.Solves != b.Solves {
			return a.Solves > b.Solves
		}
		return a.N < b.N
	})
	if len(st.Sizes) > 64 {
		st.Sizes = st.Sizes[:64]
	}
	return st
}

// ArenaBytes returns the backing bytes of one fully built scratch arena
// of the given capacity (segment tables, prefix weights, and the
// dynamic-program buffers; the lazily grown memLevel arenas are
// excluded). Benchmarks report it as arena-bytes/solve to quantify what
// exact-capacity pools save over power-of-two buckets, and the
// observability plane multiplies it by KernelStats.Buckets arena counts
// to expose pooled scratch memory as a gauge. Core itself stays free of
// any obs dependency — the 5 allocs/op warm path is gated by
// construction, not by instrumentation care.
func ArenaBytes(cap int) int {
	size := (cap + 1) * (cap + 1)
	b := 8 * (7*size + cap + 1)      // tables + pre
	b += 8 * 2 * cap * (cap + 1)     // ememBuf + mprvBuf
	b += 8 * 2 * size                // edskBuf + dprvBuf
	b += 8 * (2*(cap+1) + 3*(cap+1)) // row, arg, pos stacks
	return b
}

// Plan runs the named algorithm on the chain under the platform, using
// pooled scratch arenas.
func (k *Kernel) Plan(alg Algorithm, c *chain.Chain, p platform.Platform) (*Result, error) {
	return k.PlanOpts(alg, c, p, Options{})
}

// PlanOpts runs the named algorithm under the given options, using pooled
// scratch arenas. It is the kernel form of the package-level PlanOpts and
// returns bit-identical results.
func (k *Kernel) PlanOpts(alg Algorithm, c *chain.Chain, p platform.Platform, opts Options) (*Result, error) {
	return k.planWindow(alg, c, p, 0, opts)
}

// ReplanSuffix re-solves the dynamic program for the suffix of the chain
// after boundary `from`, typically because the platform's error rates
// have been re-estimated mid-run: boundary `from` is treated as the
// committed disk checkpoint the suffix starts from (free recovery,
// exactly like the virtual task T0). Unlike re-planning through a fresh
// chain, no suffix chain, cost table or constraint set is materialized:
// the kernel solves the window [from, n] in place against the original
// per-boundary tables, with scratch sized to the suffix (O((n-from)^2),
// not O(n^2)) and drawn from the pool.
//
// opts.Costs and opts.Constraints, when given, are the FULL-chain tables
// of the original plan; opts.MaxDiskCheckpoints is the budget remaining
// for the suffix. The result's schedule is indexed 1..n-from, suffix
// boundary j corresponding to original boundary from+j — the shape a
// supervisor splices in mid-run (see internal/runtime).
//
// ReplanSuffix(…, 0, opts) is exactly PlanOpts, and for any split the
// result is bit-identical to planning the suffix as a standalone chain
// with sliced cost and constraint tables (the equivalence suite in
// crossval_test.go enforces this).
func (k *Kernel) ReplanSuffix(alg Algorithm, c *chain.Chain, p platform.Platform, from int, opts Options) (*Result, error) {
	return k.planWindow(alg, c, p, from, opts)
}

// planWindow is the shared solve path: validate, borrow an arena, run,
// return the arena.
func (k *Kernel) planWindow(alg Algorithm, c *chain.Chain, p platform.Platform, lo int, opts Options) (*Result, error) {
	switch alg {
	case AlgADV, AlgADMVStar, AlgADMV:
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", alg)
	}
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("core: empty chain")
	}
	if lo < 0 || lo >= c.Len() {
		return nil, fmt.Errorf("core: suffix start %d out of range [0, %d)", lo, c.Len())
	}
	sc := k.acquire(c.Len() - lo)
	defer k.release(sc)
	s, err := newWindowSolver(c, p, alg, lo, opts.Costs, sc)
	if err != nil {
		return nil, err
	}
	s.k = k
	if err := s.applyOptions(opts); err != nil {
		return nil, err
	}
	if s.workers > 1 {
		k.team.solves.Add(1)
	}
	s.buildTables()
	res, err := s.run()
	if err == nil {
		n := c.Len() - lo
		k.solves.Add(1)
		b, _ := k.bucketFor(n)
		b.solves.Add(1)
		k.noteSize(n)
	}
	return res, err
}

// applyOptions validates and installs the optional planning inputs.
func (s *solver) applyOptions(opts Options) error {
	if opts.Constraints != nil {
		if err := opts.Constraints.validate(s.c.Len()); err != nil {
			return err
		}
		s.cons = opts.Constraints
	}
	if opts.MaxDiskCheckpoints != 0 {
		if opts.MaxDiskCheckpoints < 1 {
			return fmt.Errorf("core: MaxDiskCheckpoints must be at least 1 (the final checkpoint is mandatory)")
		}
		if opts.MaxDiskCheckpoints < s.maxDisk {
			s.maxDisk = opts.MaxDiskCheckpoints
		}
	}
	w, err := s.k.team.resolveSolveWorkers(opts.SolveWorkers, s.n)
	if err != nil {
		return err
	}
	s.workers = w
	return nil
}
