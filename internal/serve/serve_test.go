package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ripple/internal/diskstore"
	"ripple/internal/memstore"
)

func newService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.Store == nil {
		store := memstore.New(memstore.WithParts(4))
		t.Cleanup(func() { _ = store.Close() })
		opts.Store = store
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

func waitStatus(t *testing.T, s *Service, id string, want ...string) *JobRecord {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if rec.Status == w {
				return rec
			}
		}
		if rec.Terminal() {
			t.Fatalf("job %s reached terminal %q (err %q), wanted one of %v", id, rec.Status, rec.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return nil
}

// waitUntil polls cond until it holds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// waitStep blocks until the job has finished a synchronized step: it is
// running and inside the step loop.
func waitStep(t *testing.T, s *Service, id string) {
	t.Helper()
	replay, live, cancel := s.hub.subscribe(id)
	defer cancel()
	for _, ev := range replay {
		if ev.Type == "step" {
			return
		}
	}
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev := <-live:
			if ev.Type == "step" {
				return
			}
			if ev.terminal() {
				t.Fatalf("job %s ended (%v) before its first step", id, ev.Data["status"])
			}
		case <-timeout:
			t.Fatalf("job %s never finished a step", id)
		}
	}
}

func params(t *testing.T, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s := newService(t, Options{})
	rec, err := s.Submit("", "pagerank", params(t, map[string]any{
		"vertices": 100, "edges": 400, "iterations": 5, "seed": 7,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusQueued || rec.Tenant != "anonymous" {
		t.Fatalf("submitted record: %+v", rec)
	}
	done := waitStatus(t, s, rec.ID, StatusDone)
	if len(done.Result) == 0 {
		t.Fatal("done job has no result")
	}
	var result struct {
		Ranks map[string]float64 `json:"ranks"`
		Steps int                `json:"steps"`
	}
	if err := json.Unmarshal(done.Result, &result); err != nil {
		t.Fatal(err)
	}
	if len(result.Ranks) != 100 || result.Steps < 5 {
		t.Fatalf("result: %d ranks, %d steps", len(result.Ranks), result.Steps)
	}
	// Ranks sum to ~1 (a real PageRank, not garbage).
	sum := 0.0
	for _, r := range result.Ranks {
		sum += r
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("ranks sum to %v", sum)
	}

	// The event history tells the whole story: queued → running → done with
	// step events in between.
	events, _, cancel := s.hub.subscribe(rec.ID)
	cancel()
	var statuses []string
	steps := 0
	for _, ev := range events {
		switch ev.Type {
		case "status":
			statuses = append(statuses, ev.Data["status"].(string))
		case "step":
			steps++
		}
	}
	if strings.Join(statuses, ",") != "queued,running,done" {
		t.Errorf("status sequence = %v", statuses)
	}
	if steps < 5 {
		t.Errorf("only %d step events", steps)
	}
}

func TestAllWorkloadsRun(t *testing.T) {
	s := newService(t, Options{MaxConcurrent: 3})
	ids := map[string]string{}
	for wl, p := range map[string]any{
		"pagerank": map[string]any{"vertices": 60, "iterations": 3},
		"sssp":     map[string]any{"vertices": 80, "batches": 2, "batch_size": 10},
		"summa":    map[string]any{"n": 24, "grid": 3},
	} {
		rec, err := s.Submit("", wl, params(t, p))
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		ids[wl] = rec.ID
	}
	for wl, id := range ids {
		rec := waitStatus(t, s, id, StatusDone)
		if len(rec.Result) == 0 {
			t.Errorf("%s: empty result", wl)
		}
	}
}

func TestUnknownWorkloadAndBadParams(t *testing.T) {
	s := newService(t, Options{})
	if _, err := s.Submit("", "nope", nil); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("unknown workload: %v", err)
	}
	rec, err := s.Submit("", "pagerank", json.RawMessage(`{"no_such_knob": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, s, rec.ID, StatusFailed)
	if !strings.Contains(got.Error, "no_such_knob") {
		t.Errorf("failure does not name the bad field: %q", got.Error)
	}
}

// slowJob submits a pagerank run slowed enough to still be running when the
// test acts on it.
func slowJob(t *testing.T, s *Service, tenant string) *JobRecord {
	t.Helper()
	rec, err := s.Submit(tenant, "pagerank", params(t, map[string]any{
		"vertices": 80, "iterations": 2000, "step_delay_ms": 20,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestCancelRunningJobInProcess(t *testing.T) {
	s := newService(t, Options{MaxConcurrent: 1})
	rec := slowJob(t, s, "")
	waitStep(t, s, rec.ID)

	start := time.Now()
	if _, err := s.Cancel(rec.ID); err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, s, rec.ID, StatusCanceled)
	if !got.CancelRequested {
		t.Error("canceled record does not show the request")
	}
	// The interrupt lands at the next barrier: one step delay plus slack,
	// not minutes of remaining iterations.
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("cancel took %v", el)
	}

	// The slot and job name are released: a fresh submit runs to done on the
	// same engine, and the canceled job's partial state did not poison it.
	again, err := s.Submit("", "pagerank", params(t, map[string]any{"vertices": 60, "iterations": 3}))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, again.ID, StatusDone)
}

func TestCancelQueuedJob(t *testing.T) {
	s := newService(t, Options{MaxConcurrent: 1, TenantQuota: 8})
	running := slowJob(t, s, "")
	waitStatus(t, s, running.ID, StatusRunning)
	queued := slowJob(t, s, "")
	if rec, _ := s.Get(queued.ID); rec.Status != StatusQueued {
		t.Fatalf("second job is %q, want queued", rec.Status)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if rec, _ := s.Get(queued.ID); rec.Status != StatusCanceled {
		t.Fatalf("canceled queued job is %q", rec.Status)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, running.ID, StatusCanceled)
}

func TestTenantQuotaAndQueueBounds(t *testing.T) {
	s := newService(t, Options{MaxConcurrent: 1, TenantQuota: 2, QueueDepth: 2})
	a1 := slowJob(t, s, "alice")
	waitStatus(t, s, a1.ID, StatusRunning)
	if _, err := s.Submit("alice", "summa", nil); err != nil {
		t.Fatalf("second alice job within quota: %v", err)
	}
	// Third live alice job breaches the quota; bob is unaffected.
	if _, err := s.Submit("alice", "summa", nil); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("quota breach: %v", err)
	}
	b1, err := s.Submit("bob", "summa", nil)
	if err != nil {
		t.Fatalf("bob within quota: %v", err)
	}
	// Queue now holds two entries (alice's summa + bob's); depth 2 is full.
	if _, err := s.Submit("carol", "summa", nil); !errors.Is(err, ErrQueueFull) {
		t.Errorf("queue overflow: %v", err)
	}
	// Draining the queue frees both quota and queue space.
	if _, err := s.Cancel(a1.ID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, b1.ID, StatusDone)
	if _, err := s.Submit("carol", "summa", nil); err != nil {
		t.Errorf("submit after drain: %v", err)
	}
}

func TestDeterministicResultAcrossServices(t *testing.T) {
	p := map[string]any{"vertices": 120, "edges": 500, "iterations": 6, "seed": 99}
	results := make([]json.RawMessage, 2)
	for i := range results {
		s := newService(t, Options{})
		rec, err := s.Submit("", "pagerank", params(t, p))
		if err != nil {
			t.Fatal(err)
		}
		done := waitStatus(t, s, rec.ID, StatusDone)
		results[i] = done.Result
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Error("same params produced different result bytes across services")
	}
}

// TestRestartRecoveryResumesFromCheckpoint is the in-process version of the
// serve-smoke restart story: a service over a disk store is shut down
// mid-job; a second service over the same directory re-lists the job,
// resumes it from its checkpoint, and the result bytes match an
// uninterrupted run of the same params.
func TestRestartRecoveryResumesFromCheckpoint(t *testing.T) {
	p := map[string]any{"vertices": 100, "edges": 400, "iterations": 30, "seed": 5, "step_delay_ms": 20}

	// Reference: uninterrupted run (its own store, same params).
	ref := newService(t, Options{CheckpointEvery: 3})
	refRec, err := ref.Submit("", "pagerank", params(t, p))
	if err != nil {
		t.Fatal(err)
	}
	refDone := waitStatus(t, ref, refRec.ID, StatusDone)

	dir := t.TempDir()
	open := func() *diskstore.Store {
		ds, err := diskstore.New(dir, diskstore.WithParts(4))
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}

	// First life: run until at least one checkpoint exists, then shut down.
	ds1 := open()
	s1, err := New(Options{Store: ds1, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	rec, err := s1.Submit("", "pagerank", params(t, p))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s1, rec.ID, StatusRunning)
	waitForStepEvents(t, s1, rec.ID, 8) // > 2 checkpoint cadences in
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	_ = ds1.Close()

	// The record survived as "running" — not canceled by the shutdown.
	if got, _ := s1.Get(rec.ID); got.Status != StatusRunning {
		t.Fatalf("after shutdown, job is %q, want running", got.Status)
	}

	// Second life: same directory, fresh store handle and service.
	ds2 := open()
	t.Cleanup(func() { _ = ds2.Close() })
	s2, err := New(Options{Store: ds2, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Close(ctx)
	})
	got, err := s2.Get(rec.ID)
	if err != nil {
		t.Fatalf("restarted service lost the job: %v", err)
	}
	if !got.Resumed {
		t.Error("recovered record not marked resumed")
	}
	done := waitStatus(t, s2, rec.ID, StatusDone)
	var result struct {
		Resumed bool `json:"resumed"`
	}
	if err := json.Unmarshal(done.Result, &result); err != nil {
		t.Fatal(err)
	}
	if !result.Resumed {
		t.Error("resumed run did not use the checkpoint (fell back to rerun)")
	}

	// Byte-identical to the uninterrupted reference, modulo the resumed flag.
	if norm(t, done.Result) != norm(t, refDone.Result) {
		t.Errorf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", done.Result, refDone.Result)
	}
}

// norm re-marshals a result with the resumed flag cleared, for comparison
// between resumed and uninterrupted runs.
func norm(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "resumed")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func waitForStepEvents(t *testing.T, s *Service, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		events, _, cancel := s.hub.subscribe(id)
		cancel()
		steps := 0
		for _, ev := range events {
			if ev.Type == "step" {
				steps++
			}
		}
		if steps >= n {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never produced %d step events", id, n)
}

// TestHTTPAPI exercises the full HTTP surface over httptest: submit, status,
// SSE streaming to completion, result, quota as 429, cancel as DELETE.
func TestHTTPAPI(t *testing.T) {
	s := newService(t, Options{MaxConcurrent: 1, TenantQuota: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post := func(tenant, body string) (*http.Response, map[string]any) {
		t.Helper()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
		if tenant != "" {
			req.Header.Set("X-API-Key", tenant)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		_ = resp.Body.Close()
		return resp, m
	}

	// Slowed enough that it is still live for the quota check below, but
	// bounded so the SSE stream still ends promptly.
	resp, sub := post("alice", `{"workload":"pagerank","params":{"vertices":80,"iterations":20,"step_delay_ms":25}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, sub)
	}
	id := sub["id"].(string)

	// Quota: alice holds 1 live job; a second submit is 429, bob's is fine.
	if resp, _ := post("alice", `{"workload":"summa"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("quota breach over HTTP: %d", resp.StatusCode)
	}
	resp, bob := post("bob", `{"workload":"summa","params":{"n":24}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob submit: %d", resp.StatusCode)
	}

	// SSE: stream until the terminal status event arrives.
	sseResp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	sawStep, sawDone := false, false
	scanner := bufio.NewScanner(sseResp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: step") {
			sawStep = true
		}
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"status":"done"`) {
			sawDone = true
		}
	}
	if !sawStep || !sawDone {
		t.Fatalf("SSE stream: step=%v done=%v", sawStep, sawDone)
	}

	// Result is now servable; an unknown job 404s.
	res, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var result map[string]any
	_ = json.NewDecoder(res.Body).Decode(&result)
	_ = res.Body.Close()
	if res.StatusCode != http.StatusOK || result["ranks"] == nil {
		t.Fatalf("result: %d %v", res.StatusCode, result)
	}
	if res, _ := ts.Client().Get(ts.URL + "/v1/jobs/nope/result"); res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result: %d", res.StatusCode)
	} else {
		res.Body.Close()
	}

	// DELETE cancels bob's job (or races its completion; both are fine).
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+bob["id"].(string), nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("cancel: %d", dresp.StatusCode)
	}

	// Workload listing.
	wres, _ := ts.Client().Get(ts.URL + "/v1/workloads")
	var wl map[string][]string
	_ = json.NewDecoder(wres.Body).Decode(&wl)
	_ = wres.Body.Close()
	if fmt.Sprint(wl["workloads"]) != "[pagerank sssp summa]" {
		t.Errorf("workloads: %v", wl)
	}
}
