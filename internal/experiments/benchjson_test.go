package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTableIIIStagesAndBenchReport: a stage-collecting Table III run
// yields a per-stage breakdown per CWE (verification runs included)
// whose grouped columns sum to the merged self time, the formatted table prints the breakdown section,
// and BuildBenchReport round-trips through JSON with the key stages
// present.
func TestTableIIIStagesAndBenchReport(t *testing.T) {
	if !obs.Enabled() {
		t.Skip("tracing compiled out (cfix_notrace)")
	}
	opts := TableIIIOptions{Stride: 100, Stages: true}
	start := time.Now()
	rows, err := RunTableIII(opts)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	var sawStages bool
	for _, r := range rows {
		if r.Programs == 0 {
			continue
		}
		if len(r.Stages) == 0 {
			t.Errorf("CWE-%d: no stages collected over %d programs", r.CWE, r.Programs)
			continue
		}
		sawStages = true
		grouped := r.ParseTime + r.AnalyzeTime + r.SLRTime + r.STRTime + r.InterpTime
		if grouped != obs.SelfTotal(r.Stages) {
			t.Errorf("CWE-%d: grouped columns %v != merged self total %v",
				r.CWE, grouped, obs.SelfTotal(r.Stages))
		}
	}
	if !sawStages {
		t.Fatal("no CWE collected stages")
	}

	table := FormatTableIII(rows)
	for _, want := range []string{"Per-stage pipeline time", "Stage detail", "parse", "slr"} {
		if !strings.Contains(table, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, table)
		}
	}

	rep := BuildBenchReport(rows, opts, wall)
	if rep.Suite != "cfix-pipeline-samate" || rep.Programs == 0 || rep.WallUs <= 0 {
		t.Fatalf("report header: %+v", rep)
	}
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded BenchReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, st := range decoded.Stages {
		names[st.Name] = true
	}
	for _, want := range []string{"parse", "typecheck", "slr", "str", "fix", "interp"} {
		if !names[want] {
			t.Fatalf("report missing stage %q: %v", want, names)
		}
	}
	if len(decoded.CWEs) != len(rows) {
		t.Fatalf("cwes: %d rows, want %d", len(decoded.CWEs), len(rows))
	}
}

// TestTableIIIStagesOff: without the option no stages are collected and
// the table omits the breakdown section (the zero-cost default).
func TestTableIIIStagesOff(t *testing.T) {
	rows, err := RunTableIII(TableIIIOptions{Stride: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Stages) != 0 || r.ParseTime != 0 {
			t.Fatalf("CWE-%d collected stages without opting in: %+v", r.CWE, r.Stages)
		}
	}
	if table := FormatTableIII(rows); strings.Contains(table, "Per-stage pipeline time") {
		t.Fatal("breakdown section printed without stage collection")
	}
}

// TestMeasureIntflowStage: the supplementary integer-oracle measurement
// is marked supplementary, carries real spans when tracing is enabled,
// and degrades to ok=false (not an error) when tracing is compiled out.
func TestMeasureIntflowStage(t *testing.T) {
	st, ok, err := MeasureIntflowStage(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Enabled() {
		if ok {
			t.Fatalf("cfix_notrace build measured a stage: %+v", st)
		}
		return
	}
	if !ok {
		t.Fatal("tracing enabled but no intflow stage measured")
	}
	if st.Name != obs.StageIntflow || !st.Supplementary {
		t.Fatalf("stage: %+v, want name=%q supplementary=true", st, obs.StageIntflow)
	}
	if st.Count == 0 || st.SelfUs < 0 {
		t.Fatalf("implausible stage aggregate: %+v", st)
	}
}
