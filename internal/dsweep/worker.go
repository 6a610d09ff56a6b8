package dsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// Worker executes one derived single-trial scenario document and returns
// its run. Implementations are a local in-process pool slot or a remote
// imobif-served instance; both must be deterministic in the document, so
// the coordinator's merge is independent of which worker ran a trial.
type Worker interface {
	// RunTrial executes doc (a single-trial document with its seed
	// already derived) and returns the run.
	RunTrial(ctx context.Context, doc *scenario.Scenario) (serve.RunResult, error)
	// Name labels the worker in progress output and errors.
	Name() string
}

// LocalWorker runs trials in-process under the coordinator's context.
// It is stateless, so it may run several trials at once.
type LocalWorker struct {
	// Slot distinguishes pool members in progress output.
	Slot int
}

// LocalWorkers returns an n-slot in-process pool (n <= 0 yields one
// slot).
func LocalWorkers(n int) []Worker {
	if n < 1 {
		n = 1
	}
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = &LocalWorker{Slot: i}
	}
	return ws
}

// Name implements Worker.
func (w *LocalWorker) Name() string { return fmt.Sprintf("local:%d", w.Slot) }

// RunTrial implements Worker through serve.RunTrial, the code path the
// service runs each trial of a job on. A canceled run is the context's
// error here: the coordinator has no use for a partial trial.
func (w *LocalWorker) RunTrial(ctx context.Context, doc *scenario.Scenario) (serve.RunResult, error) {
	run, err := serve.RunTrial(ctx, doc, nil)
	if err == nil && run.Canceled {
		return serve.RunResult{}, ctx.Err()
	}
	return run, err
}

// HTTPWorker runs trials on a remote imobif-served instance through its
// service API: submit the derived document as a job, poll to a terminal
// state, and extract the single run. Identical documents are coalesced
// and cached server-side, so re-running a trial after a coordinator
// crash costs the server nothing if it still has the result.
type HTTPWorker struct {
	// Base is the server's base URL (e.g. "http://127.0.0.1:8080").
	Base string
	// Client is the HTTP client; nil uses http.DefaultClient.
	Client *http.Client
	// PollInterval is the status poll period; <= 0 means 20ms.
	PollInterval time.Duration
}

// Name implements Worker.
func (w *HTTPWorker) Name() string { return w.Base }

// client returns the effective HTTP client.
func (w *HTTPWorker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// poll returns the effective poll interval.
func (w *HTTPWorker) poll() time.Duration {
	if w.PollInterval > 0 {
		return w.PollInterval
	}
	return 20 * time.Millisecond
}

// RunTrial implements Worker by driving the document through the remote
// service: POST /v1/jobs (retrying 429 backpressure per Retry-After),
// then GET /v1/jobs/{id} until terminal. Any transport failure — a
// killed worker process included — surfaces as the trial's error; the
// coordinator's checkpoint makes the retry-after-resume cheap.
func (w *HTTPWorker) RunTrial(ctx context.Context, doc *scenario.Scenario) (serve.RunResult, error) {
	body, err := json.Marshal(doc)
	if err != nil {
		return serve.RunResult{}, fmt.Errorf("marshaling trial document: %w", err)
	}
	env, err := w.submit(ctx, body)
	if err != nil {
		return serve.RunResult{}, err
	}
	for !env.Status.Terminal() {
		if err := sleepCtx(ctx, w.poll()); err != nil {
			return serve.RunResult{}, err
		}
		if env, err = w.getJob(ctx, env.ID); err != nil {
			return serve.RunResult{}, err
		}
	}
	if env.Status != serve.StatusDone {
		return serve.RunResult{}, fmt.Errorf("remote job %s ended %s: %s", env.ID, env.Status, env.Error)
	}
	var res serve.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return serve.RunResult{}, fmt.Errorf("decoding remote result: %w", err)
	}
	if len(res.Runs) != 1 {
		return serve.RunResult{}, fmt.Errorf("remote job %s returned %d run(s), want 1", env.ID, len(res.Runs))
	}
	return res.Runs[0], nil
}

// submit POSTs the document, retrying 429 responses per their
// Retry-After header until ctx expires.
func (w *HTTPWorker) submit(ctx context.Context, body []byte) (serve.Envelope, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return serve.Envelope{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.client().Do(req)
		if err != nil {
			return serve.Envelope{}, fmt.Errorf("submitting to %s: %w", w.Base, err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err := sleepCtx(ctx, wait); err != nil {
				return serve.Envelope{}, err
			}
			continue
		}
		return decodeEnvelope(resp)
	}
}

// getJob GETs the job envelope.
func (w *HTTPWorker) getJob(ctx context.Context, id string) (serve.Envelope, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Base+"/v1/jobs/"+id, nil)
	if err != nil {
		return serve.Envelope{}, err
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return serve.Envelope{}, fmt.Errorf("polling %s: %w", w.Base, err)
	}
	return decodeEnvelope(resp)
}

// decodeEnvelope reads a job envelope response, failing on non-2xx
// statuses.
func decodeEnvelope(resp *http.Response) (serve.Envelope, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Envelope{}, err
	}
	if resp.StatusCode/100 != 2 {
		return serve.Envelope{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var env serve.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return serve.Envelope{}, fmt.Errorf("decoding envelope: %w", err)
	}
	return env, nil
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ParseWorkers parses the CLI worker list: comma-separated entries, each
// either "local:N" (an N-slot in-process pool) or an imobif-served base
// URL. "local" alone means one slot per CPU is the caller's choice —
// ParseWorkers itself rejects it to keep the syntax explicit.
func ParseWorkers(list string) ([]Worker, error) {
	var ws []Worker
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		switch {
		case strings.HasPrefix(entry, "local:"):
			n, err := strconv.Atoi(strings.TrimPrefix(entry, "local:"))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("dsweep: bad local worker spec %q (want local:N, N >= 1)", entry)
			}
			ws = append(ws, LocalWorkers(n)...)
		case strings.HasPrefix(entry, "http://"), strings.HasPrefix(entry, "https://"):
			ws = append(ws, &HTTPWorker{Base: strings.TrimRight(entry, "/")})
		default:
			return nil, fmt.Errorf("dsweep: bad worker spec %q (want local:N or an http(s) URL)", entry)
		}
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("dsweep: empty worker list")
	}
	return ws, nil
}
