package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/clex"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/incremental"
	"repro/internal/server"
	"repro/pkg/cfix"
)

// Sizes of one daemon-edit pass. The editor's file holds editorPrograms
// SAMATE programs (about 1.5 KLOC); it sends daemonEdits one-token edits.
// The CI client sends daemonFixes fix requests whose sources follow a
// zipf(zipfS) popularity over the corpus, mutatedShare of them changed so
// that they cannot hit the cache. Both sequences are fixed, not
// time-boxed, so every commit sees the same cache hit ratio. The CI
// sequence takes about half again as long as the edit script, so every
// edit waits on a daemon the CI client is also loading; were the two
// about as long, edits would split into a contended and a quiet half and
// their median would fall between the two.
const (
	editorPrograms = 40
	daemonEdits    = 500
	daemonFixes    = 30000
	zipfS          = 1.2
	mutatedShare   = 0.10
	// sessionCheckEvery is the stride of edits whose findings the gate
	// re-derives from scratch.
	sessionCheckEvery = 50
)

// daemonInputs is one seeded daemon-edit script.
type daemonInputs struct {
	editorName string
	editorText string
	editorKLOC float64
	edits      []cfix.SessionDelta
	// checkText holds the session text after every sessionCheckEvery-th
	// edit, for the from-scratch gate.
	checkText map[int]string
	fixes     []fixRequest
}

type fixRequest struct {
	name, source string
}

// editorFile joins programs into one translation unit: one shared
// preamble, then each program without its preamble and main.
func editorFile(progs []string) (string, error) {
	const preambleEnd = "static int static_returns_true(void) { return 1; }\n"
	var sb strings.Builder
	for i, src := range progs {
		cut := strings.Index(src, preambleEnd)
		mainAt := strings.LastIndex(src, "\nint main(void)")
		if cut < 0 || mainAt < 0 {
			return "", errors.New("SAMATE program without the expected preamble and main")
		}
		if i == 0 {
			sb.WriteString(src[:cut+len(preambleEnd)])
		}
		sb.WriteString(src[cut+len(preambleEnd) : mainAt+1])
	}
	return sb.String(), nil
}

// literal is an integer literal the edit script may rewrite.
type literal struct {
	pos  int
	text string
}

// buildDaemon generates the editor file, its edit script and the CI
// request sequence from seed.
func buildDaemon(seed int64, edits, fixes int) (daemonInputs, string, error) {
	all := samateCorpus()
	rng := rand.New(rand.NewSource(seed))
	in := daemonInputs{editorName: "editor.c", checkText: map[int]string{}}

	var picked []string
	for _, j := range rng.Perm(len(all))[:editorPrograms] {
		picked = append(picked, all[j].Source)
	}
	text, err := editorFile(picked)
	if err != nil {
		return in, "", err
	}
	in.editorText = text
	in.editorKLOC = float64(strings.Count(text, "\n")+1) / 1000

	toks, err := clex.TokenizeForParser(text)
	if err != nil {
		return in, "", fmt.Errorf("tokenize editor file: %w", err)
	}
	// Nonzero decimal literals: rewriting one to another nonzero value
	// keeps the file parseable and changes the facts of its function.
	var lits []literal
	for _, t := range toks {
		if t.Kind == ctoken.KindIntLit && t.Text != "0" && strings.Trim(t.Text, "0123456789") == "" {
			lits = append(lits, literal{pos: int(t.Extent.Pos), text: t.Text})
		}
	}
	if len(lits) == 0 {
		return in, "", errors.New("editor file has no integer literals to edit")
	}
	for e := 0; e < edits; e++ {
		k := rng.Intn(len(lits))
		old := lits[k].text
		repl := old
		for repl == old {
			repl = strconv.Itoa(1 + rng.Intn(64))
		}
		d := cfix.SessionDelta{Pos: lits[k].pos, End: lits[k].pos + len(old), Text: repl}
		in.edits = append(in.edits, d)
		text = text[:d.Pos] + repl + text[d.End:]
		lits[k].text = repl
		for j := k + 1; j < len(lits); j++ {
			lits[j].pos += len(repl) - len(old)
		}
		if (e+1)%sessionCheckEvery == 0 {
			in.checkText[e] = text
		}
	}

	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(all)-1))
	popularity := rng.Perm(len(all))
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%v\x00", in.editorText, in.edits)
	for f := 0; f < fixes; f++ {
		p := all[popularity[zipf.Uint64()]]
		req := fixRequest{name: p.ID + ".c", source: p.Source}
		mutated := rng.Float64() < mutatedShare
		if mutated {
			req.source += fmt.Sprintf("\n/* ci revision %d */\n", f)
		}
		in.fixes = append(in.fixes, req)
		fmt.Fprintf(h, "%s\x00%t\x00", req.name, mutated)
	}
	return in, fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// daemonRecord is what one pass leaves for the gates and metrics.
type daemonRecord struct {
	editSamples, fixSamples []sample
	cpu                     time.Duration // process CPU while the clients ran
	fixDigest               []string      // of each /v1/fix answer, Cached cleared
	hit                     []bool
	findings                map[int][]byte // session findings at checked edits
	cache                   cfix.CacheStats
	rejected                int64
}

// fixAnswerDigest hashes a fix answer with the cache flag cleared, so a
// hit and the miss that filled it compare equal.
func fixAnswerDigest(r cfix.FixResponse) string {
	r.Cached = false
	b, _ := json.Marshal(r) // a struct of strings, numbers and slices always encodes
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// daemonPass starts a fresh daemon with an empty cache on a loopback
// listener, drives it with the editor and CI clients at once, and stops
// it.
func daemonPass(in daemonInputs) (*daemonRecord, error) {
	ctx := context.Background()
	cache, err := cfix.NewResultCache(256<<20, "")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Cache: cache, Log: log.New(io.Discard, "", 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	defer func() {
		transport.CloseIdleConnections()
		// Shutdown waits for idle connections only; every request has
		// been answered by now, so its error can only repeat Serve's.
		_ = hs.Shutdown(ctx)
		<-served
	}()
	client := func() *cfix.Client {
		c := cfix.NewClient("http://" + ln.Addr().String())
		c.HTTPClient = &http.Client{Transport: transport}
		c.MaxRetries = -1 // a refused request is a failed op, not a retry
		return c
	}
	editor, ci := client(), client()

	open, err := editor.SessionOpen(ctx, cfix.SessionOpenRequest{Filename: in.editorName, Source: in.editorText})
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	rec := &daemonRecord{
		fixDigest: make([]string, len(in.fixes)),
		hit:       make([]bool, len(in.fixes)),
		findings:  map[int][]byte{},
	}
	editOps := make([]op, len(in.edits))
	for i, d := range in.edits {
		i, d := i, d
		var resp *cfix.SessionResponse
		editOps[i] = op{
			kloc: in.editorKLOC,
			run: func() error {
				var err error
				resp, err = editor.SessionEdit(ctx, cfix.SessionEditRequest{SessionID: open.SessionID, Deltas: []cfix.SessionDelta{d}})
				return err
			},
			after: func() {
				if _, check := in.checkText[i]; check && resp != nil {
					rec.findings[i], _ = json.Marshal(resp.Findings) // plain data; encoding cannot fail
				}
				resp = nil
			},
		}
	}
	fixOps := make([]op, len(in.fixes))
	for i, f := range in.fixes {
		i, f := i, f
		var resp *cfix.FixResponse
		fixOps[i] = op{
			kloc: float64(strings.Count(f.source, "\n")+1) / 1000,
			run: func() error {
				var err error
				resp, err = ci.Fix(ctx, cfix.FixRequest{Filename: f.name, Source: f.source})
				return err
			},
			after: func() {
				if resp != nil {
					rec.hit[i] = resp.Cached
					rec.fixDigest[i] = fixAnswerDigest(*resp)
				}
				resp = nil
			},
		}
	}
	c0 := cpuTime()
	samples := closedLoop([][]op{editOps, fixOps})
	rec.cpu = cpuTime() - c0
	rec.editSamples, rec.fixSamples = samples[0], samples[1]
	if _, err := editor.SessionClose(ctx, cfix.SessionCloseRequest{SessionID: open.SessionID}); err != nil {
		return nil, fmt.Errorf("close session: %w", err)
	}
	rec.cache = cache.Stats()
	rec.rejected = srv.Metrics().Rejected429
	return rec, nil
}

// checkDaemon applies the gates to one pass. Every distinct fix answer
// must equal in-process pkg/cfix.Fix on the same input (first is nil) or
// the first pass's answer; every repeated answer must equal the first
// answer to the same source; and the session's findings at the checked
// edits must equal a from-scratch core.Analyze of the same text.
func checkDaemon(res *result, in daemonInputs, rec, first *daemonRecord) {
	res.attempted += len(rec.editSamples) + len(rec.fixSamples)
	for i, s := range rec.editSamples {
		if s.err != nil {
			res.fail("edit %d: %v", i, s.err)
		}
	}
	firstAt := map[string]int{}
	for i, f := range in.fixes {
		if err := rec.fixSamples[i].err; err != nil {
			res.fail("fix %d (%s): %v", i, f.name, err)
			continue
		}
		key := f.name + "\x00" + f.source
		j, seen := firstAt[key]
		switch {
		case seen:
			if rec.fixDigest[i] != rec.fixDigest[j] {
				res.fail("fix %d (%s): answer differs from request %d for the same source", i, f.name, j)
			}
			continue
		case first != nil:
			if rec.fixDigest[i] != first.fixDigest[i] {
				res.fail("fix %d (%s): answer differs from the first pass", i, f.name)
			}
		default:
			rep, err := cfix.Fix(f.name, f.source, cfix.Options{SelectAll: true, Backend: "glib"})
			if err != nil {
				res.fail("fix %d (%s): in-process fix: %v", i, f.name, err)
			} else if fixAnswerDigest(cfix.NewFixResponse(f.name, rep)) != rec.fixDigest[i] {
				res.fail("fix %d (%s): daemon answer differs from in-process pkg/cfix.Fix", i, f.name)
			}
		}
		firstAt[key] = i
	}
	for i, text := range in.checkText {
		got, ok := rec.findings[i]
		if !ok {
			continue // the edit failed, counted above
		}
		fs, err := core.Analyze(context.Background(), in.editorName, text, core.Options{Checks: "all"})
		if err != nil {
			res.fail("edit %d: from-scratch analysis: %v", i, err)
			continue
		}
		want, _ := json.Marshal(cfix.NewSessionFindingsJSON(fs)) // plain data; encoding cannot fail
		if !bytes.Equal(got, want) {
			res.fail("edit %d: session findings differ from a from-scratch core.Analyze", i)
		}
	}
}

func runDaemon(cfg config) (*result, error) {
	su, err := newSetup(func() (daemonInputs, string, error) {
		return buildDaemon(cfg.seed, daemonEdits, daemonFixes)
	})
	if err != nil {
		return nil, err
	}
	in := su.in
	res := newResult()
	res.digest = su.digest
	if cfg.trace {
		return res, traceDaemon(cfg, res, in)
	}

	var (
		first                   *daemonRecord
		edits, fixes            []sample
		hit                     []bool
		cpu                     time.Duration
		hits, misses, evictions int64
	)
	passes, err := measure(cfg.seconds, func() error {
		rec, err := daemonPass(in)
		if err != nil {
			return err
		}
		edits, fixes = append(edits, rec.editSamples...), append(fixes, rec.fixSamples...)
		hit = append(hit, rec.hit...)
		cpu += rec.cpu
		hits, misses, evictions = hits+rec.cache.Hits, misses+rec.cache.Misses, evictions+rec.cache.Evictions
		checkDaemon(res, in, rec, first)
		if first == nil {
			first = rec
		}
		return nil
	}, su.again)
	if err != nil {
		return nil, err
	}
	// The gates above ran after each pass, so the peak includes the
	// in-process reference fixes; they allocate far less than the daemon.
	rss := peakRSSMB()
	ew, fw := byWindow(netOfSteal(edits, window), window), byWindow(netOfSteal(fixes, window), window)
	note := fmt.Sprintf("medians of %d edit and %d fix windows, %d passes", ew.windows, fw.windows, passes)
	res.set("setup_s", su.seconds(), len(su.times), "median of builds spread over the run")
	res.set("ops_per_s", ew.rate+fw.rate, ew.n+fw.n, "editor + CI client; "+note)
	res.set("kloc_per_s", ew.klocRate+fw.klocRate, ew.n+fw.n, "editor + CI client; "+note)
	res.set("op_p50_ms", ew.p50, ew.n, "per edit; "+note)
	res.set("op_tail_ms", ew.tail, ew.n, fmt.Sprintf("per edit, %s in each window, >= %d beyond; %s", ew.label, ew.beyond, note))
	res.set("cpu_ms_per_op", msPer(cpu, float64(len(edits)+len(fixes))), len(edits)+len(fixes), "process CPU, all threads, daemon and clients")
	res.set("peak_rss_mb", rss, 1, "VmHWM after the measured passes")
	hitS, missS := splitFixes(fixes, hit)
	res.lines = append(res.lines,
		fmt.Sprintf("fix hit  p50 %.4g ms, %s %.4g ms (n=%d)", hitS.p50, hitS.tailLabel(), hitS.tail, hitS.n),
		fmt.Sprintf("fix miss p50 %.4g ms, %s %.4g ms (n=%d)", missS.p50, missS.tailLabel(), missS.tail, missS.n),
		fmt.Sprintf("cache hits %d, misses %d, evictions %d", hits, misses, evictions),
		stealLine(edits, fixes))
	return res, nil
}

// splitFixes separates fix latencies into cache hits and misses, so the
// two never share a percentile.
func splitFixes(fixes []sample, hit []bool) (summary, summary) {
	var h, m []sample
	for i, s := range fixes {
		if hit[i] {
			h = append(h, s)
		} else {
			m = append(m, s)
		}
	}
	return summarize(h), summarize(m)
}

// traceDaemon runs one untraced pass against the daemon and one with the
// editor alone, then replays the edit script on in-process
// incremental.Sessions (untraced and under spans) and re-runs the requests
// that missed the cache through core.Fix, to split the daemon's time
// between the layers.
func traceDaemon(cfg config, res *result, in daemonInputs) error {
	ctx := context.Background()
	rt0, parses0 := readRuntime(), cparse.Parses()
	rec, err := daemonPass(in)
	if err != nil {
		return err
	}
	rt1, parses1 := readRuntime(), cparse.Parses()
	checkDaemon(res, in, rec, nil)
	ops := float64(len(in.edits) + len(in.fixes))
	nEdits := float64(len(in.edits))

	// The edit round trip without the CI client, which server.edit_overhead_ms
	// compares with the in-process session.
	editorOnly := in
	editorOnly.fixes = nil
	alone, err := daemonPass(editorOnly)
	if err != nil {
		return err
	}
	checkDaemon(res, editorOnly, alone, nil)

	// The edit script replayed on two in-process sessions, each edit
	// untraced on one and then traced on the other, so the pair sees the
	// machine in the same state and their difference is the tracing
	// overhead.
	plain, _, err := incremental.Open(ctx, in.editorName, in.editorText, incremental.Config{})
	if err != nil {
		return err
	}
	traced, _, err := incremental.Open(ctx, in.editorName, in.editorText, incremental.Config{})
	if err != nil {
		return err
	}
	t := newTracer()
	var untracedReplay, tracedReplay time.Duration
	var reanalyzed, reused int
	for i, d := range in.edits {
		deltas := cfix.ToDeltas([]cfix.SessionDelta{d})
		start := time.Now()
		if _, err := plain.Edit(ctx, deltas); err != nil {
			return fmt.Errorf("replay edit %d: %w", i, err)
		}
		untracedReplay += time.Since(start)
		t.op = i
		var r *incremental.Result
		opSpan := t.begin("op")
		t.call("incremental.Session.Edit", func() { r, err = traced.Edit(ctx, deltas) })
		t.end(opSpan)
		if err != nil {
			return fmt.Errorf("replay edit %d: %w", i, err)
		}
		tracedReplay += t.spans[opSpan].end - t.spans[opSpan].start
		reanalyzed, reused = reanalyzed+r.FuncsReanalyzed, reused+r.FuncsReused
	}
	// The parse a session edit pays for, timed alone on each edited text.
	text := in.editorText
	var tokens int
	for i, d := range in.edits {
		t.op = i
		text = text[:d.Pos] + d.Text + text[d.End:]
		t.call("cparse.Parse", func() { _, err = cparse.Parse(in.editorName, text) })
		if err != nil {
			return fmt.Errorf("parse after edit %d: %w", i, err)
		}
		t.call("clex.TokenizeForParser", func() {
			toks, _ := clex.TokenizeForParser(text)
			tokens += len(toks)
		})
	}
	var missCount int
	for i, f := range in.fixes {
		if rec.hit[i] {
			continue
		}
		missCount++
		t.op = len(in.edits) + i
		opSpan := t.begin("op")
		t.call("core.Fix", func() {
			_, err = core.Fix(ctx, f.name, f.source, core.Options{SelectOffset: -1, Backend: "glib"})
		})
		t.end(opSpan)
		if err != nil {
			return fmt.Errorf("fix %d: %w", i, err)
		}
	}

	tot := t.totals()
	editMs := msPer(tot["incremental.Session.Edit"].dur, nEdits)
	hitS, missS := splitFixes(rec.fixSamples, rec.hit)
	res.set("cparse.parses_per_op", float64(parses1-parses0)/ops, int(ops), "daemon, untraced")
	res.set("cparse.ms_per_op", msPer(tot["cparse.Parse"].dur, nEdits), tot["cparse.Parse"].count, "per edit")
	res.set("cparse.alloc_kb_per_op", float64(tot["cparse.Parse"].alloc)/1024/nEdits, tot["cparse.Parse"].count, "per edit")
	res.set("clex.ms_per_op", msPer(tot["clex.TokenizeForParser"].dur, nEdits), tot["clex.TokenizeForParser"].count, "per edit")
	res.set("clex.tokens_per_op", float64(tokens)/nEdits, tot["clex.TokenizeForParser"].count, "per edit")
	res.set("incremental.edit_ms", editMs, len(in.edits), "in-process replay")
	res.set("incremental.reanalyzed_per_edit", float64(reanalyzed)/nEdits, len(in.edits), "")
	res.set("incremental.reuse_ratio", ratio(reused, reused+reanalyzed), reused+reanalyzed, "")
	res.set("server.edit_overhead_ms", msPer(busy(alone.editSamples), nEdits)-editMs, len(in.edits), "edit round trip without the CI client minus incremental.edit_ms")
	res.set("server.fix_hit_p50_ms", hitS.p50, hitS.n, "")
	res.set("server.fix_hit_tail_ms", hitS.tail, hitS.n, fmt.Sprintf("%s, %d beyond", hitS.tailLabel(), hitS.beyond))
	res.set("server.fix_miss_p50_ms", missS.p50, missS.n, "")
	res.set("server.fix_miss_tail_ms", missS.tail, missS.n, fmt.Sprintf("%s, %d beyond", missS.tailLabel(), missS.beyond))
	res.set("server.rejected", float64(rec.rejected), int(ops), "429 answers")
	res.set("cache.hit_ratio", ratio(int(rec.cache.Hits), int(rec.cache.Hits+rec.cache.Misses)), int(rec.cache.Hits+rec.cache.Misses), "")
	res.set("cache.misses", float64(rec.cache.Misses), len(in.fixes), "")
	res.set("cache.evictions", float64(rec.cache.Evictions), len(in.fixes), "")
	res.set("core.fix_miss_ms", msPer(tot["core.Fix"].dur, float64(missCount)), missCount, "in-process, no cache")
	res.set("harness.residual_ms_per_op", msPer(t.residual("op"), nEdits+float64(missCount)), tot["op"].count, "traced op minus its layer spans")
	setRuntimeMetrics(res, rt0, rt1, ops)
	res.set("trace.overhead_ms_per_op", msPer(tracedReplay-untracedReplay, nEdits), len(in.edits), "traced edit minus the untraced edit run just before it")

	line, err := writeAndCheckTrace(cfg, t, 5)
	if err != nil {
		return err
	}
	res.lines = append(res.lines, line)
	return nil
}
