package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
)

// Client is the typed consumer of an assessd instance — what the
// -remote mode of cmd/agingtest speaks. The zero HTTPClient means
// http.DefaultClient.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTPClient overrides the transport (tests, timeouts).
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// apiError is a service error document surfaced client-side, keeping the
// wire kind available to errors.Is through Unwrap.
type apiError struct {
	Kind    string
	Status  int
	Message string
}

func (e *apiError) Error() string {
	if e.Status == 0 { // terminal stream event, not an HTTP failure
		return fmt.Sprintf("assessd: campaign failed: %s (%s)", e.Message, e.Kind)
	}
	return fmt.Sprintf("assessd: %s (%s, HTTP %d)", e.Message, e.Kind, e.Status)
}

// Unwrap maps wire kinds back onto the repository's typed errors so
// clients can errors.Is(err, sramaging.ErrConfig) across the HTTP
// boundary.
func (e *apiError) Unwrap() error {
	switch e.Kind {
	case "config":
		return core.ErrConfig
	case "short_window":
		return core.ErrShortWindow
	case "unknown_device":
		return core.ErrUnknownDevice
	case "no_months":
		return core.ErrNoMonths
	case "not_found":
		return ErrNotFound
	case "draining":
		return ErrDraining
	case "cancelled":
		return context.Canceled
	default:
		return nil
	}
}

// do performs one request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return decodeAPIError(resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func decodeAPIError(status int, body []byte) error {
	var doc struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.Error == "" {
		doc.Error, doc.Kind = strings.TrimSpace(string(body)), "internal"
	}
	return &apiError{Kind: doc.Kind, Status: status, Message: doc.Error}
}

// Submit posts a campaign spec and returns the admitted campaign state.
func (c *Client) Submit(ctx context.Context, spec Spec) (CampaignState, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return CampaignState{}, err
	}
	var st CampaignState
	err = c.do(ctx, http.MethodPost, "/v1/campaigns", body, &st)
	return st, err
}

// Status fetches one campaign's state.
func (c *Client) Status(ctx context.Context, id string) (CampaignState, error) {
	var st CampaignState
	err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &st)
	return st, err
}

// Cancel requests a campaign's cancellation and returns its state.
func (c *Client) Cancel(ctx context.Context, id string) (CampaignState, error) {
	var st CampaignState
	err := c.do(ctx, http.MethodPost, "/v1/campaigns/"+id+"/cancel", nil, &st)
	return st, err
}

// Stream consumes a campaign's NDJSON event stream, invoking fn per
// event (history first, then live) until the terminal event, fn error,
// or ctx cancellation. A stream that ends without a terminal event (the
// service died mid-stream) is an error.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/campaigns/"+id+"/stream"), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(resp.Body)
		return decodeAPIError(resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("assessd: malformed stream event: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
		if ev.Type == "done" || ev.Type == "error" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("assessd: stream for %s ended without a terminal event", id)
}

// Run submits a campaign and streams it to completion: months are
// delivered through onMonth as they finalise, and the assembled Results
// (monthly series + Table I, bit-identical to a local run of the same
// spec) are returned. A campaign that fails server-side returns the
// typed error reconstructed from the wire kind.
func (c *Client) Run(ctx context.Context, spec Spec, onMonth func(core.MonthEval)) (string, *core.Results, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return "", nil, err
	}
	res, err := c.Watch(ctx, st.ID, onMonth)
	return st.ID, res, err
}

// Watch streams an existing campaign to completion and assembles its
// Results from the event stream.
func (c *Client) Watch(ctx context.Context, id string, onMonth func(core.MonthEval)) (*core.Results, error) {
	res := &core.Results{}
	var terminal *Event
	err := c.Stream(ctx, id, func(ev Event) error {
		switch ev.Type {
		case "month":
			if ev.Month != nil {
				res.Monthly = append(res.Monthly, *ev.Month)
				if onMonth != nil {
					onMonth(*ev.Month)
				}
			}
		case "done", "error":
			cp := ev
			terminal = &cp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if terminal == nil {
		return nil, fmt.Errorf("assessd: campaign %s stream ended without a terminal event", id)
	}
	if terminal.Type == "error" {
		return nil, &apiError{Kind: terminal.ErrKind, Status: 0, Message: terminal.Error}
	}
	if terminal.Table != nil {
		res.Table = *terminal.Table
	}
	return res, nil
}
