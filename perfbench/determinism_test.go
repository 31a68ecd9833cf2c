package main

import (
	"context"
	"sort"
	"testing"

	"repro/internal/cparse"
	"repro/internal/incremental"
	"repro/internal/samate"
	"repro/pkg/cfix"
)

// These tests run small versions of each workload twice with one seed and
// once with another. One seed must give the same inputs and the same
// exact counts; another seed must change the order but not the gate
// results.

func samateRun(t *testing.T, seed int64) (string, map[string]verdict, int64) {
	t.Helper()
	progs, digest, err := buildSamate(seed, 60)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make([]verdict, len(progs))
	errs := make([]error, len(progs))
	before := cparse.Parses()
	closedLoop([][]op{samateOps(progs, verdicts, errs)})
	parses := cparse.Parses() - before
	res := newResult()
	checkVerdicts(res, progs, verdicts, errs)
	if res.failed != 0 {
		t.Fatalf("seed %d: %d gate failures: %v", seed, res.failed, res.gateErrs)
	}
	byID := map[string]verdict{}
	for i, p := range progs {
		byID[p.ID] = verdicts[i]
	}
	return digest, byID, parses
}

func TestSamateDeterministic(t *testing.T) {
	d1, v1, parses1 := samateRun(t, 7)
	d2, v2, parses2 := samateRun(t, 7)
	if d1 != d2 || parses1 != parses2 {
		t.Fatalf("one seed, two runs: digests %s/%s, parses %d/%d", d1, d2, parses1, parses2)
	}
	for id, v := range v1 {
		if v2[id] != v {
			t.Errorf("%s: verdict %+v then %+v", id, v, v2[id])
		}
	}
	// The full corpus under another seed: same programs, other order.
	a, _, err := buildSamate(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, digestB, err := buildSamate(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if digestB == d1 || sameOrder(ids(a), ids(b)) {
		t.Fatal("another seed left the op order unchanged")
	}
	if !sameOrder(sorted(ids(a)), sorted(ids(b))) {
		t.Fatal("another seed changed the set of programs")
	}
}

func TestProjectDeterministic(t *testing.T) {
	run := func(seed int64) (string, []string, map[string]projectOutcome) {
		projs, digest, err := buildProjects(seed, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]projectOutcome, len(projs))
		errs := make([]error, len(projs))
		closedLoop([][]op{projectOps(projs, outs, errs, true)})
		res := newResult()
		checkProjects(res, projs, outs, errs, nil)
		var order []string
		byName := map[string]projectOutcome{}
		for i, bp := range projs {
			if err := makeTest(bp, outs[i].fixed); err != nil {
				res.fail("%s: %v", bp.proj.Name, err)
			}
			order = append(order, bp.proj.Name)
			byName[bp.proj.Name] = outs[i]
		}
		if res.failed != 0 {
			t.Fatalf("seed %d: gate failures: %v", seed, res.gateErrs)
		}
		return digest, order, byName
	}
	d1, order1, o1 := run(3)
	d2, _, o2 := run(3)
	if d1 != d2 {
		t.Fatalf("one seed gave input digests %s and %s", d1, d2)
	}
	edges := 0
	for name, o := range o1 {
		p := o2[name]
		if o.digest != p.digest || o.edges != p.edges || o.slrApplied != p.slrApplied || o.strApplied != p.strApplied {
			t.Errorf("%s: outcomes differ between runs with one seed", name)
		}
		edges += o.edges
	}
	if edges != 34+79+95+109 {
		t.Errorf("cross-file edges %d, want 317", edges)
	}
	// Seeds 3 and 4 order the four projects differently.
	_, order3, o3 := run(4)
	if sameOrder(order1, order3) {
		t.Error("another seed left the project order unchanged")
	}
	for name, o := range o1 {
		if o3[name].digest != o.digest {
			t.Errorf("%s: fixed files depend on the seed", name)
		}
	}
}

func TestDaemonDeterministic(t *testing.T) {
	const edits, fixes = 60, 300
	run := func(seed int64) (string, *daemonRecord, int) {
		in, digest, err := buildDaemon(seed, edits, fixes)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := daemonPass(in)
		if err != nil {
			t.Fatal(err)
		}
		res := newResult()
		checkDaemon(res, in, rec, nil)
		if res.failed != 0 {
			t.Fatalf("seed %d: gate failures: %v", seed, res.gateErrs)
		}
		sess, _, err := incremental.Open(context.Background(), in.editorName, in.editorText, incremental.Config{})
		if err != nil {
			t.Fatal(err)
		}
		reanalyzed := 0
		for _, d := range in.edits {
			r, err := sess.Edit(context.Background(), cfix.ToDeltas([]cfix.SessionDelta{d}))
			if err != nil {
				t.Fatal(err)
			}
			reanalyzed += r.FuncsReanalyzed
		}
		return digest, rec, reanalyzed
	}
	d1, r1, re1 := run(5)
	d2, r2, re2 := run(5)
	if d1 != d2 || re1 != re2 || r1.cache.Hits != r2.cache.Hits || r1.cache.Misses != r2.cache.Misses {
		t.Fatalf("one seed, two runs: digests %s/%s, reanalyzed %d/%d, hits %d/%d",
			d1, d2, re1, re2, r1.cache.Hits, r2.cache.Hits)
	}
	for i := range r1.fixDigest {
		if r1.fixDigest[i] != r2.fixDigest[i] || r1.hit[i] != r2.hit[i] {
			t.Fatalf("fix %d answered differently across runs with one seed", i)
		}
	}
	if d3, _, _ := run(6); d3 == d1 {
		t.Error("another seed produced the same inputs")
	}
}

func ids(progs []samate.Program) []string {
	out := make([]string, len(progs))
	for i, p := range progs {
		out[i] = p.ID
	}
	return out
}

func sorted(s []string) []string {
	s = append([]string(nil), s...)
	sort.Strings(s)
	return s
}

func sameOrder(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
