package engine

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"chainckpt/internal/core"
	"chainckpt/internal/platform"
	"chainckpt/internal/workload"
)

// TestSolveWidthConvention: core.Options, engine.Options and the
// -solve-workers flag (core.SolveWorkersFlag, the flag type chainserve,
// chainexp and chainrun all register) read a width the same way — 0
// auto, 1 serial, k >= 2 pinned — and reject a negative width with the
// same core message.
func TestSolveWidthConvention(t *testing.T) {
	c, err := workload.Uniform(12, 12000)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.Hera()
	for _, tc := range []struct {
		width   int
		wantErr bool
		// What one solve of the 12-task chain does at this width:
		// engage a team, or (auto below the crossover) count a skip.
		team, skip bool
	}{
		{width: -1, wantErr: true},
		{width: 0, skip: true},
		{width: 1},
		{width: 2, team: true},
	} {
		t.Run(strconv.Itoa(tc.width), func(t *testing.T) {
			wantMsg := fmt.Sprintf("core: SolveWorkers must be non-negative, got %d", tc.width)
			check := func(layer string, err error) {
				t.Helper()
				switch {
				case tc.wantErr && (err == nil || !strings.Contains(err.Error(), wantMsg)):
					t.Errorf("%s: err = %v, want %q", layer, err, wantMsg)
				case !tc.wantErr && err != nil:
					t.Errorf("%s: unexpected error %v", layer, err)
				}
			}
			checkStats := func(layer string, st core.KernelParallelStats) {
				t.Helper()
				if (st.Solves > 0) != tc.team || (st.CrossoverSkips > 0) != tc.skip {
					t.Errorf("%s: parallel stats %+v, want team=%v skip=%v", layer, st, tc.team, tc.skip)
				}
			}

			k := core.NewKernel()
			_, err := k.PlanOpts(core.AlgADV, c, p, core.Options{SolveWorkers: tc.width})
			check("core.Options", err)
			if err == nil {
				checkStats("core.Options", k.Stats().Parallel)
			}

			err = func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = r.(error)
					}
				}()
				eng := New(Options{Workers: 1, SolveWorkers: tc.width})
				defer eng.Close()
				if _, err := eng.Plan(context.Background(), Request{Algorithm: core.AlgADV, Chain: c, Platform: p}); err != nil {
					return err
				}
				checkStats("engine.Options", eng.Stats().Kernel.Parallel)
				return nil
			}()
			check("engine.Options", err)

			fs := flag.NewFlagSet("cli", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			v := core.SolveWorkersFlag(1)
			fs.Var(&v, "solve-workers", "")
			err = fs.Parse([]string{"-solve-workers", strconv.Itoa(tc.width)})
			check("-solve-workers", err)
			if err == nil && int(v) != tc.width {
				t.Errorf("-solve-workers %d parsed as %d, want it passed through", tc.width, v)
			}
		})
	}
}
