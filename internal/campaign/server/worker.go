// The remote campaign worker: claim cells from a campaign server, execute
// them against a worker-local simulation arena, submit the records back, and
// repeat until the server reports the campaign done. Every HTTP call retries
// with deterministic exponential backoff — a dropped response is
// indistinguishable from a dropped request, and the protocol is built so
// retrying blindly is always safe: claims re-lease (or expire), submits are
// idempotent, and a worker that dies mid-cell simply lets its lease expire.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"alertmanet/internal/campaign"
	"alertmanet/internal/experiment"
)

// Worker defaults.
const (
	// DefaultPoll is the delay between claims when the queue is empty.
	DefaultPoll = 100 * time.Millisecond
	// DefaultBackoffBase and DefaultBackoffMax bound the deterministic
	// exponential backoff between HTTP attempts.
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
	// DefaultHTTPAttempts is how many times one request is tried before
	// the worker gives up on the server.
	DefaultHTTPAttempts = 8
)

// WorkerEvent reports one cell's execution to the worker's progress
// callback.
type WorkerEvent struct {
	// Key and Label identify the cell.
	Key   string
	Label string
	// Status is the server's verdict ("accepted", "duplicate") or "fail"
	// when the cell was reported unexecutable.
	Status SubmitStatus
	// Seconds is the execution wall time; Attempts the execution count.
	Seconds  float64
	Attempts int
	// Err is the execution error for failed cells.
	Err error
}

// Worker executes campaign cells claimed from a remote server. The zero
// value plus BaseURL is usable: one executor goroutine, default batch,
// retries, and backoff.
type Worker struct {
	// Name identifies the worker in server-side leases and events; "" is
	// replaced by "worker".
	Name string
	// BaseURL is the campaign server root, e.g. "http://host:7077".
	BaseURL string
	// Client issues the HTTP requests; nil means a fresh http.Client. The
	// fault-injection harness swaps in a scripted transport here.
	Client *http.Client
	// Jobs is the number of parallel cell executors (default 1); Batch is
	// how many cells one claim asks for (default Jobs).
	Jobs  int
	Batch int
	// Retries is the maximum number of execution attempts per cell before
	// the cell is reported failed; 0 means 1.
	Retries int
	// HTTPAttempts bounds the per-request retry loop (default
	// DefaultHTTPAttempts); BackoffBase/BackoffMax shape the deterministic
	// exponential backoff between attempts.
	HTTPAttempts int
	BackoffBase  time.Duration
	BackoffMax   time.Duration
	// Poll is the idle-claim delay (default DefaultPoll).
	Poll time.Duration
	// Sleep, when set, replaces the real clock between retries and polls —
	// the seam deterministic tests inject a fake scheduler through.
	Sleep func(time.Duration)
	// OnCell, when set, observes each executed cell.
	OnCell func(WorkerEvent)
}

func (w *Worker) name() string {
	if w.Name == "" {
		return "worker"
	}
	return w.Name
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{}
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.Sleep != nil {
		w.Sleep(d)
		return ctx.Err()
	}
	//lint:allowwallclock retry backoff and idle polling pace HTTP traffic, not simulated time; tests inject Sleep
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the deterministic delay before HTTP attempt n (0-based).
func (w *Worker) backoff(n int) time.Duration {
	base := w.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	max := w.BackoffMax
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := base << uint(n)
	if d > max || d <= 0 {
		d = max
	}
	return d
}

// post issues one JSON request with retry/backoff. Transport errors and 5xx
// responses retry; 4xx responses are terminal (the request itself is wrong).
func (w *Worker) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("worker: encode %s: %w", path, err)
	}
	attempts := w.HTTPAttempts
	if attempts < 1 {
		attempts = DefaultHTTPAttempts
	}
	var last error
	for n := 0; n < attempts; n++ {
		if n > 0 {
			if err := w.sleep(ctx, w.backoff(n-1)); err != nil {
				return err
			}
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("worker: build %s: %w", path, err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		hresp, err := w.client().Do(hreq)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			last = err
			continue
		}
		data, rerr := io.ReadAll(hresp.Body)
		hresp.Body.Close()
		if rerr != nil {
			last = rerr
			continue
		}
		if hresp.StatusCode >= 500 {
			last = fmt.Errorf("worker: %s: server error %d: %s", path, hresp.StatusCode, bytes.TrimSpace(data))
			continue
		}
		if hresp.StatusCode >= 400 {
			return fmt.Errorf("worker: %s: rejected %d: %s", path, hresp.StatusCode, bytes.TrimSpace(data))
		}
		if resp == nil {
			return nil
		}
		if err := json.Unmarshal(data, resp); err != nil {
			return fmt.Errorf("worker: decode %s response: %w", path, err)
		}
		return nil
	}
	return fmt.Errorf("worker: %s: %d attempts exhausted: %w", path, attempts, last)
}

// Run claims and executes cells until the server reports the campaign done,
// the context is cancelled, or the server becomes unreachable past the
// retry budget. A nil return means the campaign completed.
func (w *Worker) Run(ctx context.Context) error {
	jobs := w.Jobs
	if jobs < 1 {
		jobs = 1
	}
	batch := w.Batch
	if batch < 1 {
		batch = jobs
	}
	poll := w.Poll
	if poll <= 0 {
		poll = DefaultPoll
	}
	// A transport can dial a connection it then never sends a request on
	// (another request freed a pooled one first). net/http's graceful
	// Shutdown waits up to 5 s before treating such a connection as idle,
	// so a finished worker closes its idle connections rather than hold
	// the server's shutdown open.
	defer w.client().CloseIdleConnections()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var claim ClaimResponse
		if err := w.post(ctx, PathClaim, ClaimRequest{Worker: w.name(), Max: batch}, &claim); err != nil {
			return err
		}
		if len(claim.Cells) == 0 {
			if claim.Done {
				return nil
			}
			wait := poll
			if claim.PollMillis > 0 {
				wait = time.Duration(claim.PollMillis) * time.Millisecond
			}
			if err := w.sleep(ctx, wait); err != nil {
				return err
			}
			continue
		}
		if err := w.executeClaim(ctx, claim.Cells, jobs); err != nil {
			return err
		}
	}
}

// executeClaim runs one claim's cells across the worker's executor pool and
// submits each record as it completes.
func (w *Worker) executeClaim(ctx context.Context, cells []WireCell, jobs int) error {
	if jobs > len(cells) {
		jobs = len(cells)
	}
	if jobs <= 1 {
		arena := experiment.NewArena()
		for _, wc := range cells {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := w.executeCell(ctx, wc, arena); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, jobs)
	next := make(chan WireCell)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		//lint:allowsharedstate remote-worker executor: the arena is created inside the goroutine and never crosses it; each cell's record leaves only through an HTTP submit
		go func(slot int) {
			defer wg.Done()
			arena := experiment.NewArena()
			for wc := range next {
				if errs[slot] != nil || ctx.Err() != nil {
					continue
				}
				errs[slot] = w.executeCell(ctx, wc, arena)
			}
		}(j)
	}
	for _, wc := range cells {
		if ctx.Err() != nil {
			break
		}
		//lint:allowsharedstate work-distribution hand-off: the wire cell is owned by exactly one executor goroutine from this send until its submit completes
		next <- wc
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// executeCell runs one cell with retries and submits its outcome. Execution
// failures are reported to the server (failing the campaign batch) and do
// not stop the worker; only transport exhaustion or cancellation do.
func (w *Worker) executeCell(ctx context.Context, wc WireCell, arena *experiment.Arena) error {
	// Verify the wire round trip before spending simulation time: the
	// locally-recomputed content key must match the lease. A mismatch
	// means the cell was corrupted in flight (or the builds disagree) —
	// executing it would poison the campaign with a wrong-keyed record.
	if got := wc.Cell.Key(); got != wc.Key {
		if err := w.post(ctx, PathFail, FailRequest{
			Worker: w.name(), Key: wc.Key, Attempts: 0,
			Error: fmt.Sprintf("cell key mismatch: leased %.12s, recomputed %.12s", wc.Key, got),
		}, nil); err != nil {
			return err
		}
		w.note(WorkerEvent{Key: wc.Key, Label: wc.Cell.Label(), Status: "fail",
			Err: fmt.Errorf("cell key mismatch")})
		return nil
	}
	attempts := w.Retries
	if attempts < 1 {
		attempts = 1
	}
	//lint:allowwallclock per-cell wall time feeds worker progress and server throughput accounting only
	start := time.Now()
	var rec *campaign.Record
	var err error
	tries := 0
	for tries = 1; tries <= attempts; tries++ {
		rec, err = wc.Cell.Execute(arena)
		if err == nil {
			break
		}
	}
	if tries > attempts {
		tries = attempts
	}
	//lint:allowwallclock per-cell wall time feeds worker progress and server throughput accounting only
	seconds := time.Since(start).Seconds()

	if err != nil {
		if perr := w.post(ctx, PathFail, FailRequest{
			Worker: w.name(), Key: wc.Key, Attempts: tries, Error: err.Error(),
		}, nil); perr != nil {
			return perr
		}
		w.note(WorkerEvent{Key: wc.Key, Label: wc.Cell.Label(), Status: "fail",
			Seconds: seconds, Attempts: tries, Err: err})
		return nil
	}

	var resp SubmitResponse
	if err := w.post(ctx, PathSubmit, SubmitRequest{
		Worker: w.name(), Attempts: tries, Seconds: seconds, Record: rec,
	}, &resp); err != nil {
		return err
	}
	w.note(WorkerEvent{Key: wc.Key, Label: wc.Cell.Label(), Status: resp.Status,
		Seconds: seconds, Attempts: tries})
	return nil
}

func (w *Worker) note(ev WorkerEvent) {
	if w.OnCell != nil {
		w.OnCell(ev)
	}
}
