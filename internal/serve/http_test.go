package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// newTestServer boots a manager behind an httptest server and returns a
// client pointed at it. Cleanup closes the server; the caller drains the
// manager via closeManager.
func newTestServer(t *testing.T, cfg Config) (*Manager, *Client, func()) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	cl := &Client{Base: srv.URL, HTTPClient: srv.Client()}
	stop := func() {
		cl.http().CloseIdleConnections()
		srv.Close()
	}
	t.Cleanup(stop)
	return m, cl, stop
}

// TestHTTPRoundTrip: a campaign submitted and streamed entirely through
// the HTTP client assembles Results identical to a direct engine run,
// delivering every month in order through the callback.
func TestHTTPRoundTrip(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	spec := Spec{Devices: 4, Months: 3, Window: 24, Seed: defaultSeed}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	want := directResults(t, spec)

	m, cl, stop := newTestServer(t, Config{Workers: 2, MaxActive: 2})
	ctx := context.Background()

	var streamed []core.MonthEval
	id, res, err := cl.Run(ctx, spec, func(ev core.MonthEval) { streamed = append(streamed, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Monthly, want.Monthly) {
		t.Error("streamed monthly series differs from direct run")
	}
	if !reflect.DeepEqual(res.Table, want.Table) {
		t.Errorf("streamed Table I differs from direct run:\n got %+v\nwant %+v", res.Table, want.Table)
	}
	if !reflect.DeepEqual(streamed, want.Monthly) {
		t.Error("onMonth callback sequence differs from direct run")
	}

	// The status document agrees, and re-streaming a finished campaign
	// replays the identical history.
	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone || st.MonthsDone != len(want.Monthly) {
		t.Errorf("status = %s with %d months, want done with %d", st.Status, st.MonthsDone, len(want.Monthly))
	}
	if st.Table == nil || !reflect.DeepEqual(*st.Table, want.Table) {
		t.Error("status Table differs from direct run")
	}
	res2, err := cl.Watch(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2, res) {
		t.Error("re-watching a finished campaign drifted from the live stream")
	}

	var sts []CampaignState
	if err := cl.do(ctx, http.MethodGet, "/v1/campaigns", nil, &sts); err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 || sts[0].ID != id {
		t.Errorf("list = %+v, want exactly %s", sts, id)
	}

	closeManager(t, m)
	stop()
	checkGoroutines(t, goroutines)
}

// TestHTTPErrorMapping: the wire carries typed errors — invalid specs
// are 400 and errors.Is(ErrConfig) client-side, unknown IDs 404 and
// ErrNotFound, a draining service 503 and ErrDraining, and a cancelled
// campaign's terminal stream event reconstructs context.Canceled.
func TestHTTPErrorMapping(t *testing.T) {
	m, cl, _ := newTestServer(t, Config{Workers: 2, MaxActive: 2})
	ctx := context.Background()

	if _, err := cl.Submit(ctx, Spec{Devices: 3, Months: 2}); !errors.Is(err, core.ErrConfig) {
		t.Errorf("odd device count: got %v, want ErrConfig", err)
	}
	var ae *apiError
	if _, err := cl.Submit(ctx, Spec{Devices: 3, Months: 2}); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Errorf("odd device count: got %v, want HTTP 400", err)
	}
	if _, err := cl.Status(ctx, "c999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id status: got %v, want ErrNotFound", err)
	}
	if _, err := cl.Cancel(ctx, "c999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id cancel: got %v, want ErrNotFound", err)
	}
	if err := cl.Stream(ctx, "c999999", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id stream: got %v, want ErrNotFound", err)
	}

	// A raw submission with an unknown field is rejected at decode.
	resp, err := cl.http().Post(cl.url("/v1/campaigns"), "application/json", strings.NewReader(`{"devcies": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Kind string }
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || doc.Kind != "config" {
		t.Errorf("typo'd field: HTTP %d kind %q, want 400 config", resp.StatusCode, doc.Kind)
	}

	// A long campaign cancelled mid-run surfaces context.Canceled from
	// the terminal stream event.
	st, err := cl.Submit(ctx, Spec{Devices: 4, Months: 200, Window: 16, Seed: defaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	watchErr := make(chan error, 1)
	go func() {
		_, err := cl.Watch(ctx, st.ID, nil)
		watchErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-watchErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled campaign watch: got %v, want context.Canceled", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("watch of cancelled campaign never returned")
	}
	if fin := waitTerminal(t, m, st.ID); fin.Status != StatusCancelled {
		t.Errorf("cancelled campaign status = %s", fin.Status)
	}

	// Draining rejects new submissions with 503.
	closeManager(t, m)
	if _, err := cl.Submit(ctx, Spec{Devices: 4, Months: 2}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining: got %v, want ErrDraining", err)
	}
}
