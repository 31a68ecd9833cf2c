package server

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/pkg/cfix"
)

// twoFn is two independent overflowing functions, so a one-function
// edit leaves the other's facts memoized.
const twoFn = `
void first(void) {
    char a[8];
    strcpy(a, "0123456789");
}

void second(void) {
    char b[8];
    strcpy(b, "abcdefghij");
}
`

func openSession(t *testing.T, url, src string) cfix.SessionResponse {
	t.Helper()
	var resp cfix.SessionResponse
	status, raw := postJSON(t, url+"/v1/session/open",
		cfix.SessionOpenRequest{Filename: "s.c", Source: src, Options: cfix.RequestOptions{Checks: "all"}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("open: %d %s", status, raw)
	}
	if resp.SessionID == "" {
		t.Fatal("open answered without a session id")
	}
	return resp
}

func TestSessionOpenEditClose(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	resp := openSession(t, ts.URL, twoFn)
	if len(resp.Findings) == 0 || len(resp.Sites) == 0 {
		t.Fatalf("open found nothing: %+v", resp)
	}

	// A comment-only edit must reuse every function.
	at := strings.Index(twoFn, "void second")
	var edited cfix.SessionResponse
	status, raw := postJSON(t, ts.URL+"/v1/session/edit", cfix.SessionEditRequest{
		SessionID: resp.SessionID,
		Deltas:    []cfix.SessionDelta{{Pos: at, End: at, Text: "/* note */\n"}},
	}, &edited)
	if status != http.StatusOK {
		t.Fatalf("edit: %d %s", status, raw)
	}
	if edited.FuncsReanalyzed != 0 || edited.FuncsReused != 2 {
		t.Fatalf("comment edit: reanalyzed=%d reused=%d", edited.FuncsReanalyzed, edited.FuncsReused)
	}

	// The session diagnostics must be byte-identical to /v1/lint on the
	// same text.
	newText := twoFn[:at] + "/* note */\n" + twoFn[at:]
	var lint cfix.LintResponse
	status, raw = postJSON(t, ts.URL+"/v1/lint",
		cfix.LintRequest{Filename: "s.c", Source: newText, Options: cfix.RequestOptions{Checks: "all"}}, &lint)
	if status != http.StatusOK {
		t.Fatalf("lint: %d %s", status, raw)
	}
	plain := make([]cfix.FindingJSON, len(edited.Findings))
	for i, f := range edited.Findings {
		plain[i] = f.FindingJSON
	}
	if !reflect.DeepEqual(plain, lint.Findings) {
		t.Fatalf("session findings diverge from /v1/lint:\nsession: %+v\nlint:    %+v", plain, lint.Findings)
	}

	var closed cfix.SessionCloseResponse
	status, raw = postJSON(t, ts.URL+"/v1/session/close",
		cfix.SessionCloseRequest{SessionID: resp.SessionID}, &closed)
	if status != http.StatusOK || !closed.Closed {
		t.Fatalf("close: %d %s", status, raw)
	}
	// Closing again is the client's mistake.
	status, _ = postJSON(t, ts.URL+"/v1/session/close",
		cfix.SessionCloseRequest{SessionID: resp.SessionID}, nil)
	if status != http.StatusNotFound {
		t.Fatalf("double close answered %d, want 404", status)
	}
}

func TestSessionEditUnknownID(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	status, _ := postJSON(t, ts.URL+"/v1/session/edit",
		cfix.SessionEditRequest{SessionID: "sess-none"}, nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown session answered %d, want 404", status)
	}
}

func TestSessionParseBreakingEditAnswers422AndKeepsSession(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp := openSession(t, ts.URL, twoFn)

	status, _ := postJSON(t, ts.URL+"/v1/session/edit", cfix.SessionEditRequest{
		SessionID: resp.SessionID,
		Deltas:    []cfix.SessionDelta{{Pos: 0, End: 0, Text: ")))"}},
	}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("parse-breaking edit answered %d, want 422", status)
	}

	// The session must still serve edits on its previous text.
	var edited cfix.SessionResponse
	status, raw := postJSON(t, ts.URL+"/v1/session/edit", cfix.SessionEditRequest{
		SessionID: resp.SessionID,
		Deltas:    []cfix.SessionDelta{{Pos: 0, End: 0, Text: "/* ok */"}},
	}, &edited)
	if status != http.StatusOK {
		t.Fatalf("edit after failure: %d %s", status, raw)
	}
}

func TestSessionTableCap(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxSessions: 2})
	openSession(t, ts.URL, twoFn)
	openSession(t, ts.URL, twoFn)
	status, raw := postJSON(t, ts.URL+"/v1/session/open",
		cfix.SessionOpenRequest{Source: twoFn}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-cap open answered %d (%s), want 429", status, raw)
	}
}

func TestSessionMetricsCounters(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})
	resp := openSession(t, ts.URL, twoFn)

	at := strings.Index(twoFn, "a[8]") + len("a[")
	status, raw := postJSON(t, ts.URL+"/v1/session/edit", cfix.SessionEditRequest{
		SessionID: resp.SessionID,
		Deltas:    []cfix.SessionDelta{{Pos: at, End: at + 1, Text: "9"}},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("edit: %d %s", status, raw)
	}

	m := srv.Metrics()
	if m.Sessions.Open != 1 || m.Sessions.Opens != 1 {
		t.Fatalf("session gauges: %+v", m.Sessions)
	}
	if m.Sessions.EditsApplied != 1 {
		t.Fatalf("edits_applied = %d", m.Sessions.EditsApplied)
	}
	if m.Sessions.FuncsReanalyzed != 1 || m.Sessions.FuncsReused != 1 {
		t.Fatalf("funcs counters: %+v", m.Sessions)
	}
	// The incremental re-analysis must surface as a stage histogram
	// (when tracing is compiled in; the session counters above hold
	// either way).
	if _, ok := m.Stages["incremental"]; cfix.TracingEnabled() && !ok {
		t.Fatalf("no incremental stage in metrics: %v", mapsKeys(m.Stages))
	}

	postJSON(t, ts.URL+"/v1/session/close", cfix.SessionCloseRequest{SessionID: resp.SessionID}, nil)
	if got := srv.Metrics().Sessions.Open; got != 0 {
		t.Fatalf("sessions_open after close = %d", got)
	}
}

func mapsKeys(m map[string]StageSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
