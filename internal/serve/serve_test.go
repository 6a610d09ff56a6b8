package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	imobif "repro"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// e2eScenario is the reference job document of the HTTP suite: a
// three-node relay chain with an explicit path, trace capture, and
// time-series sampling — expressible identically through the public
// imobif API, so service results can be compared bit-for-bit.
const e2eScenario = `{
  "name": "e2e-chain",
  "packet_bytes": 1024,
  "rate_bytes_per_sec": 1024,
  "nodes": [
    {"x": 0, "y": 0, "joules": 1000},
    {"x": 150, "y": 0, "joules": 1000},
    {"x": 300, "y": 0, "joules": 1000}
  ],
  "flows": [{"src": 0, "dst": 2, "length_kb": 32, "path": [0, 1, 2]}],
  "output": {"trace": true, "sample_interval_s": 5}
}`

// newTestServer starts a serve.Server behind httptest and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// postScenario submits a document and returns the HTTP response with its
// body read.
func postScenario(t *testing.T, base, doc string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading submit response: %v", err)
	}
	return resp, body
}

// getBody GETs a path and returns the response with its body read.
func getBody(t *testing.T, base, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return resp, body
}

// pollTerminal polls GET /v1/jobs/{id} until the job is terminal and
// returns the final envelope plus its exact body bytes.
func pollTerminal(t *testing.T, base, id string) (Envelope, []byte) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := getBody(t, base, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: HTTP %d: %s", id, resp.StatusCode, body)
		}
		var env Envelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("decoding envelope: %v", err)
		}
		if env.Status.Terminal() {
			return env, body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, env.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// submitAndWait submits a document and polls it to a terminal state.
func submitAndWait(t *testing.T, base, doc string) (Envelope, []byte) {
	t.Helper()
	resp, body := postScenario(t, base, doc)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding submit envelope: %v", err)
	}
	return pollTerminal(t, base, env.ID)
}

// TestEndToEndMatchesDirectRun drives submit → poll → result → trace
// through real HTTP and asserts every returned metric — energies,
// durations, flow outcomes, time series, and the JSONL trace bytes — is
// bit-identical to a direct imobif.NewSimulation run of the same
// scenario.
func TestEndToEndMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	env, _ := submitAndWait(t, ts.URL, e2eScenario)
	if env.Status != StatusDone {
		t.Fatalf("job ended %s: %s", env.Status, env.Error)
	}
	var res Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.Trials != 1 || len(res.Runs) != 1 {
		t.Fatalf("want 1 trial/run, got %d/%d", res.Trials, len(res.Runs))
	}
	run := res.Runs[0]

	// The same scenario through the public library API.
	cfg := imobif.DefaultConfig()
	net, err := imobif.NewNetwork([]imobif.Node{
		{ID: 0, X: 0, Y: 0, Joules: 1000},
		{ID: 1, X: 150, Y: 0, Joules: 1000},
		{ID: 2, X: 300, Y: 0, Joules: 1000},
	}, cfg.Range)
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	sim, err := imobif.NewSimulation(cfg, net,
		imobif.WithTraceWriter(&traceBuf), imobif.WithTimeSeries(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddFlowPath([]int{0, 1, 2}, 32*1024); err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	if run.TxJoules != direct.TxJoules || run.MoveJoules != direct.MoveJoules ||
		run.ControlJoules != direct.ControlJoules {
		t.Errorf("energy mismatch: served tx=%v move=%v ctl=%v, direct tx=%v move=%v ctl=%v",
			run.TxJoules, run.MoveJoules, run.ControlJoules,
			direct.TxJoules, direct.MoveJoules, direct.ControlJoules)
	}
	if run.DurationSeconds != direct.DurationSeconds {
		t.Errorf("duration: served %v, direct %v", run.DurationSeconds, direct.DurationSeconds)
	}
	if run.FirstDeathSeconds != direct.FirstDeathSeconds {
		t.Errorf("first death: served %v, direct %v", run.FirstDeathSeconds, direct.FirstDeathSeconds)
	}
	if len(run.Flows) != len(direct.Flows) {
		t.Fatalf("flow count: served %d, direct %d", len(run.Flows), len(direct.Flows))
	}
	for i, f := range run.Flows {
		d := direct.Flows[i]
		if f.Completed != d.Completed || f.DeliveredBytes != d.DeliveredBytes ||
			f.Notifications != d.Notifications || f.StatusFlips != d.StatusFlips ||
			f.DurationSeconds != d.DurationSeconds || f.LifetimeSeconds != d.LifetimeSeconds ||
			f.PathNodes != d.PathNodes || f.PacketsEmitted != d.PacketsEmitted ||
			f.PacketsDropped != d.PacketsDropped || f.DeliveryRatio != d.DeliveryRatio {
			t.Errorf("flow %d mismatch: served %+v, direct %+v", i, f, d)
		}
	}
	if got, want := run.Channel.Unicasts, direct.Channel.Unicasts; got != want {
		t.Errorf("unicasts: served %d, direct %d", got, want)
	}
	if len(run.Samples) != len(direct.Series) {
		t.Fatalf("sample count: served %d, direct %d", len(run.Samples), len(direct.Series))
	}
	for i, s := range run.Samples {
		d := direct.Series[i]
		if s.AtSeconds != d.AtSeconds || s.TxJoules != d.TxJoules || s.MoveJoules != d.MoveJoules ||
			s.ResidualMinJoules != d.ResidualMinJoules || s.AliveNodes != d.AliveNodes ||
			s.DeliveredPackets != d.DeliveredPackets {
			t.Errorf("sample %d mismatch: served %+v, direct %+v", i, s, d)
		}
	}

	// The streamed trace is byte-identical to the library's JSONL export.
	resp, traceBody := getBody(t, ts.URL, "/v1/jobs/"+env.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d: %s", resp.StatusCode, traceBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type %q", ct)
	}
	if !bytes.Equal(traceBody, traceBuf.Bytes()) {
		t.Errorf("trace bytes differ: served %d bytes, direct %d bytes", len(traceBody), traceBuf.Len())
	}
	if events, err := trace.ParseJSONL(bytes.NewReader(traceBody)); err != nil {
		t.Errorf("served trace does not parse: %v", err)
	} else if len(events) == 0 {
		t.Error("served trace is empty")
	}
}

// TestCachedResultByteIdentical pins the determinism contract: a cache
// hit returns the stored bytes verbatim, and an independent server's
// cold run of the same document produces the same body.
func TestCachedResultByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	_, coldBody := submitAndWait(t, ts.URL, e2eScenario)

	resp, hitBody := postScenario(t, ts.URL, e2eScenario)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit: HTTP %d: %s", resp.StatusCode, hitBody)
	}
	if got := resp.Header.Get(submitHeader); got != "cached" {
		t.Errorf("submit header %q, want cached", got)
	}
	if !bytes.Equal(hitBody, coldBody) {
		t.Errorf("cache hit body differs from cold poll:\nhit:  %s\ncold: %s", hitBody, coldBody)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	_, coldBody2 := submitAndWait(t, ts2.URL, e2eScenario)
	if !bytes.Equal(coldBody, coldBody2) {
		t.Errorf("independent servers disagree:\nA: %s\nB: %s", coldBody, coldBody2)
	}
}

// TestFailurePaths is the failure-mode table: malformed and invalid
// documents, unknown ids, traces that were never requested.
func TestFailurePaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	// A completed job without trace capture, for the trace-404 row.
	noTrace := strings.Replace(e2eScenario, `"output": {"trace": true, "sample_interval_s": 5}`, `"output": {}`, 1)
	env, _ := submitAndWait(t, ts.URL, noTrace)

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantSub  string
	}{
		{"malformed json", "POST", "/v1/jobs", `{nope`, 400, "parsing"},
		{"unknown field", "POST", "/v1/jobs", `{"bogus_field": 1}`, 400, "bogus_field"},
		{"no flows", "POST", "/v1/jobs", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],"flows":[]}`, 400, "no flows"},
		{"bad trials", "POST", "/v1/jobs", `{"trials":-2,"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`, 400, "trials"},
		{"infinite flow length", "POST", "/v1/jobs", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],"flows":[{"src":0,"dst":1,"length_kb":1e306}]}`, 400, "length"},
		{"unknown mode", "POST", "/v1/jobs", `{"mode":"warp","nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`, 400, "unknown mode"},
		{"unknown strategy", "POST", "/v1/jobs", `{"strategy":"warp-drive","nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`, 400, "unknown strategy"},
		{"unknown strategy param", "POST", "/v1/jobs", `{"strategy":{"name":"rolling-horizon","params":{"warp":9}},"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`, 400, `unknown parameter "warp"`},
		{"negative tx_a", "POST", "/v1/jobs", `{"tx_a":-1,"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`, 400, "electronics cost"},
		{"path node out of range", "POST", "/v1/jobs", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],"flows":[{"src":0,"dst":1,"length_kb":1,"path":[0,7,1]}]}`, 400, "path node 7"},
		{"trace with trials", "POST", "/v1/jobs", `{"trials":3,"output":{"trace":true},"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`, 400, "single trial"},
		{"unknown job", "GET", "/v1/jobs/job-999", "", 404, "unknown job"},
		{"unknown job delete", "DELETE", "/v1/jobs/job-999", "", 404, "unknown job"},
		{"unknown job trace", "GET", "/v1/jobs/job-999/trace", "", 404, "unknown job"},
		{"trace not requested", "GET", "/v1/jobs/" + env.ID + "/trace", "", 404, "output.trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("HTTP %d, want %d: %s", resp.StatusCode, tc.wantCode, body)
			}
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if !strings.Contains(eb.Error, tc.wantSub) {
				t.Errorf("error %q does not mention %q", eb.Error, tc.wantSub)
			}
		})
	}
}

// TestOversizedWorldRejected submits a ~200-byte document asking for a
// billion random nodes: validation must refuse it with 400 before any job
// is queued, so the daemon never allocates for the world.
func TestOversizedWorldRejected(t *testing.T) {
	var queued atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1, Hooks: Hooks{
		JobQueued: func(string, string) { queued.Add(1) },
	}})
	doc := `{"random_nodes":{"count":1000000000,"field_w":1000,"field_h":1000,"energy_lo":1,"energy_hi":2},` +
		`"flows":[{"src":0,"dst":1,"length_kb":1}]}`
	resp, body := postScenario(t, ts.URL, doc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds limit") {
		t.Errorf("error body %s does not name the node limit", body)
	}
	if n := queued.Load(); n != 0 {
		t.Errorf("%d jobs queued for a rejected submission", n)
	}
	_, hz := getBody(t, ts.URL, "/healthz")
	var st Stats
	if err := json.Unmarshal(hz, &st); err != nil {
		t.Fatal(err)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("gauges after a rejected submission: %+v", st)
	}
}

// TestQueueFullBackpressure fills a one-worker, depth-one server and
// asserts the overflow submission is refused with 429 + Retry-After
// while the earlier jobs complete untouched.
func TestQueueFullBackpressure(t *testing.T) {
	gate := make(chan struct{})
	release := func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}
	defer release()
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, RetryAfterSeconds: 7,
		Hooks: Hooks{JobStarted: func(string, string) { <-gate }},
	})

	docs := make([]string, 3)
	envs := make([]Envelope, 3)
	for i := range docs {
		docs[i] = strings.Replace(e2eScenario, `"e2e-chain"`, fmt.Sprintf("%q", fmt.Sprintf("q%d", i)), 1)
	}
	// Job 0 is claimed by the worker (blocked in JobStarted), job 1
	// fills the queue. Poll the gauges to avoid racing the worker's
	// claim of job 0.
	resp, body := postScenario(t, ts.URL, docs[0])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 0: HTTP %d: %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &envs[0])
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, hb := getBody(t, ts.URL, "/healthz")
		var st Stats
		json.Unmarshal(hb, &st)
		if st.Running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never claimed job 0")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body = postScenario(t, ts.URL, docs[1])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: HTTP %d: %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &envs[1])

	resp, body = postScenario(t, ts.URL, docs[2])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: HTTP %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After %q, want 7", got)
	}

	release()
	for i := 0; i < 2; i++ {
		env, _ := pollTerminal(t, ts.URL, envs[i].ID)
		if env.Status != StatusDone {
			t.Errorf("job %d ended %s: %s", i, env.Status, env.Error)
		}
	}
}

// TestCancelMidRun cancels a running job and asserts it terminalizes as
// canceled with a well-formed deterministic partial result carrying the
// Canceled flag.
func TestCancelMidRun(t *testing.T) {
	started := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		Hooks: Hooks{JobStarted: func(string, string) { close(started) }},
	})
	// A huge flow keeps the run alive far beyond the cancellation point
	// on any machine (cancellation lands within milliseconds; the full
	// run would take hundreds).
	long := strings.Replace(e2eScenario, `"length_kb": 32`, `"length_kb": 1048576`, 1)
	resp, body := postScenario(t, ts.URL, long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var env Envelope
	json.Unmarshal(body, &env)
	<-started

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+env.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK && dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: HTTP %d", dresp.StatusCode)
	}

	final, _ := pollTerminal(t, ts.URL, env.ID)
	if final.Status != StatusCanceled {
		t.Fatalf("status %s, want canceled (error %q)", final.Status, final.Error)
	}
	var res Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("canceled job has no well-formed result: %v", err)
	}
	if !res.Canceled {
		t.Error("result.canceled is false")
	}
	if len(res.Runs) != 1 || !res.Runs[0].Canceled {
		t.Fatalf("want one canceled partial run, got %+v", res.Runs)
	}
	if res.Runs[0].DurationSeconds < 0 {
		t.Errorf("partial run has negative duration %v", res.Runs[0].DurationSeconds)
	}

	// DELETE is idempotent on a terminal job.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+env.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("second DELETE: HTTP %d, want 200", dresp.StatusCode)
	}
}

// TestCancelQueuedJob cancels a job that never started and asserts it
// reports canceled without being dropped or executed.
func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	release := func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}
	defer release()
	var startedIDs []string
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2,
		Hooks: Hooks{JobStarted: func(id, _ string) {
			<-mu
			startedIDs = append(startedIDs, id)
			mu <- struct{}{}
			<-gate
		}},
	})
	blocker := strings.Replace(e2eScenario, `"e2e-chain"`, `"blocker"`, 1)
	queuedDoc := strings.Replace(e2eScenario, `"e2e-chain"`, `"queued-victim"`, 1)
	resp, body := postScenario(t, ts.URL, blocker)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: HTTP %d", resp.StatusCode)
	}
	var blockEnv Envelope
	json.Unmarshal(body, &blockEnv)

	resp, body = postScenario(t, ts.URL, queuedDoc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("victim: HTTP %d", resp.StatusCode)
	}
	var victim Envelope
	json.Unmarshal(body, &victim)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+victim.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	dbody, _ := io.ReadAll(dresp.Body)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued: HTTP %d: %s", dresp.StatusCode, dbody)
	}
	var denv Envelope
	json.Unmarshal(dbody, &denv)
	if denv.Status != StatusCanceled {
		t.Fatalf("queued victim status %s, want canceled", denv.Status)
	}

	release()
	if env, _ := pollTerminal(t, ts.URL, blockEnv.ID); env.Status != StatusDone {
		t.Errorf("blocker ended %s", env.Status)
	}
	// The canceled victim must never have started.
	<-mu
	for _, id := range startedIDs {
		if id == victim.ID {
			t.Errorf("canceled queued job %s was executed", id)
		}
	}
	mu <- struct{}{}
}

// TestShutdownDrains verifies that Shutdown refuses new submissions with
// 503 yet runs every already-accepted job to completion — nothing
// dropped.
func TestShutdownDrains(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{
		Workers: 1, QueueDepth: 4,
		Hooks: Hooks{JobStarted: func(string, string) { <-gate }},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var envs []Envelope
	for i := 0; i < 3; i++ {
		doc := strings.Replace(e2eScenario, `"e2e-chain"`, fmt.Sprintf("%q", fmt.Sprintf("drain%d", i)), 1)
		resp, body := postScenario(t, ts.URL, doc)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		var env Envelope
		json.Unmarshal(body, &env)
		envs = append(envs, env)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Draining servers refuse new work.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postScenario(t, ts.URL, `{"name":"late","nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started refusing submissions")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := getBody(t, ts.URL, "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: HTTP %d, want 503", resp.StatusCode)
	}

	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Every accepted job finished; none were dropped.
	for i, env := range envs {
		final, _ := pollTerminal(t, ts.URL, env.ID)
		if final.Status != StatusDone {
			t.Errorf("drained job %d ended %s: %s", i, final.Status, final.Error)
		}
	}
}

// TestMultiTrialJob runs a random-placement scenario for three trials
// and checks per-trial seed derivation, aggregation, and cross-server
// byte-identical results.
func TestMultiTrialJob(t *testing.T) {
	doc := `{
	  "name": "mc",
	  "seed": 42,
	  "trials": 3,
	  "random_nodes": {"count": 12, "field_w": 400, "field_h": 400, "energy_lo": 500, "energy_hi": 1000},
	  "flows": [{"src": 0, "dst": 11, "length_kb": 8}]
	}`
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	env, body := submitAndWait(t, ts.URL, doc)
	if env.Status != StatusDone {
		t.Fatalf("job ended %s: %s", env.Status, env.Error)
	}
	var res Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Trials != 3 || len(res.Runs) != 3 {
		t.Fatalf("want 3 runs, got trials=%d runs=%d", res.Trials, len(res.Runs))
	}
	for i, run := range res.Runs {
		want := int64(sweep.DeriveSeed(42, uint64(i)))
		if run.Seed != want {
			t.Errorf("trial %d seed %d, want DeriveSeed %d", i, run.Seed, want)
		}
	}
	if res.Runs[0].TotalJoules == res.Runs[1].TotalJoules && res.Runs[1].TotalJoules == res.Runs[2].TotalJoules {
		t.Error("all trials produced identical energies; seeds are not varying placement")
	}
	var sum float64
	for _, run := range res.Runs {
		sum += run.TotalJoules
	}
	if got, want := res.MeanTotalJoules, sum/3; got != want {
		t.Errorf("mean energy %v, want %v", got, want)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	_, body2 := submitAndWait(t, ts2.URL, doc)
	if !bytes.Equal(body, body2) {
		t.Error("multi-trial result is not byte-identical across servers")
	}
}

// TestCacheEviction pins the LRU bound: filling the cache past capacity
// evicts the least-recently-used job, and its id stops resolving.
func TestCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheEntries: 2})
	ids := make([]string, 3)
	for i := range ids {
		doc := strings.Replace(e2eScenario, `"e2e-chain"`, fmt.Sprintf("%q", fmt.Sprintf("evict%d", i)), 1)
		env, _ := submitAndWait(t, ts.URL, doc)
		if env.Status != StatusDone {
			t.Fatalf("job %d ended %s", i, env.Status)
		}
		ids[i] = env.ID
	}
	if resp, body := getBody(t, ts.URL, "/v1/jobs/"+ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job still resolves: HTTP %d: %s", resp.StatusCode, body)
	}
	for _, id := range ids[1:] {
		if resp, _ := getBody(t, ts.URL, "/v1/jobs/"+id); resp.StatusCode != http.StatusOK {
			t.Errorf("recent job %s: HTTP %d", id, resp.StatusCode)
		}
	}
	var st Stats
	_, hb := getBody(t, ts.URL, "/healthz")
	json.Unmarshal(hb, &st)
	if st.CacheEntries != 2 {
		t.Errorf("cache entries %d, want 2", st.CacheEntries)
	}
}

// TestHealthz checks the liveness body's gauges on an idle server.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 8})
	resp, body := getBody(t, ts.URL, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 || st.Queued != 0 || st.Running != 0 || st.Draining {
		t.Errorf("unexpected gauges %+v", st)
	}
}
