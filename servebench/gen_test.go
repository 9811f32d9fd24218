package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

func bodies(w *workloadSpec) [][]byte {
	var out [][]byte
	for _, list := range [][]request{w.batches, w.warm, w.ops} {
		for _, r := range list {
			out = append(out, r.body)
		}
	}
	return out
}

func sameBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"plan-hot", "plan-miss"} {
		a, err := generate(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(name, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.ops) == 0 || len(a.warm) == 0 {
			t.Fatalf("%s: empty list (ops %d, warm %d)", name, len(a.ops), len(a.warm))
		}
		if !sameBodies(bodies(a), bodies(b)) {
			t.Errorf("%s: seed 7 generated two different lists", name)
		}
		if sameBodies(bodies(a), bodies(c)) {
			t.Errorf("%s: seeds 7 and 8 generated the same list", name)
		}
	}
}

func TestGenerateRejectsUnknownWorkload(t *testing.T) {
	if _, err := generate("plan-warm", 1, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPlanMissNeverRepeatsAFingerprint(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		w, err := generate("plan-miss", seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range append(append([]request{}, w.warm...), w.ops...) {
			fp, err := fingerprint(r.plan)
			if err != nil {
				t.Fatal(err)
			}
			if seen[fp] {
				t.Fatalf("seed %d: %s %+v repeats a fingerprint", seed, r.class, r.plan)
			}
			seen[fp] = true
		}
	}
}

func TestPlanMissKeepsTheClassMix(t *testing.T) {
	w, err := generate("plan-miss", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for i, r := range w.ops {
		if want := missClasses[missCycle[i%len(missCycle)]].name; r.class != want {
			t.Fatalf("op %d is %s, want %s", i, r.class, want)
		}
		count[r.class]++
	}
	if count["admv"] < 2*count["adv"]-2 || count["adv"] == 0 {
		t.Fatalf("class mix %v", count)
	}
}

func TestPlanHotBatchesCoverEveryKey(t *testing.T) {
	w, err := generate("plan-hot", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.warm) != hotKeys {
		t.Fatalf("%d warm-up keys, want %d", len(w.warm), hotKeys)
	}
	keys := map[string]bool{}
	for _, k := range w.warm {
		fp, err := fingerprint(k.plan)
		if err != nil {
			t.Fatal(err)
		}
		keys[fp] = true
	}
	if len(keys) != hotKeys {
		t.Fatalf("%d distinct keys, want %d", len(keys), hotKeys)
	}
	if len(w.batches) != hotKeys/hotBatch+1 {
		t.Fatalf("%d batches, want %d and one of every key", len(w.batches), hotKeys/hotBatch)
	}
	sent := map[string]int{}
	for i, b := range w.batches {
		var br batchReq
		if err := json.Unmarshal(b.body, &br); err != nil {
			t.Fatal(err)
		}
		want := hotBatch
		if i == len(w.batches)-1 {
			want = hotKeys
		}
		if b.key != i || len(br.Requests) != want {
			t.Fatalf("batch %d (key %d) holds %d keys, want %d", i, b.key, len(br.Requests), want)
		}
		for _, pr := range br.Requests {
			fp, err := fingerprint(pr)
			if err != nil {
				t.Fatal(err)
			}
			if !keys[fp] {
				t.Fatalf("batch %d sends %+v, which warm-up never planned", b.key, pr)
			}
			sent[fp]++
		}
	}
	for fp := range keys {
		if sent[fp] != 2 {
			t.Fatalf("key %s is in %d batches, want 2: one small, and the whole set", fp, sent[fp])
		}
	}
	hits := make([]int, len(w.batches))
	for _, r := range w.ops {
		hits[r.key]++
	}
	if slices.Max(hits)-slices.Min(hits) > 1 {
		t.Fatalf("ops per batch %v: the ops do not cycle through the batches", hits)
	}
}

func TestJobSeedsAreDistinctAndSeeded(t *testing.T) {
	a := jobSeeds(3, 64)
	seen := map[uint64]bool{}
	for _, s := range a {
		if s == 0 || seen[s] {
			t.Fatalf("seed %d repeated or zero", s)
		}
		seen[s] = true
	}
	if b := jobSeeds(3, 64); !slices.Equal(a, b) {
		t.Error("workload seed 3 drew two different job seed lists")
	}
	if c := jobSeeds(4, 64); slices.Equal(a, c) {
		t.Error("workload seeds 3 and 4 drew the same job seeds")
	}
}
