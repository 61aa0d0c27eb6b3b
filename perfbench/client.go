package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"
)

// clients is the closed-loop client count: one process, no more client
// goroutines or connections than the host has CPUs.
func clients() int { return runtime.NumCPU() }

// newClient returns an HTTP client capped at n connections to a host.
func newClient(n int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// view is the part of a job view (serve.View, cluster.JobView) the
// clients read. Result keeps the server's bytes.
type view struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Error     string          `json:"error"`
	CacheHit  bool            `json:"cache_hit"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Result    json.RawMessage `json:"result"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// call sends one request and decodes a JSON view from the response.
func call(c *http.Client, method, url string, body any) (int, view, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, view{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, view{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, view{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, view{}, err
	}
	var v view
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, &v); err != nil {
			return resp.StatusCode, v, fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, v, nil
}

// compact strips insignificant whitespace, so results rendered with and
// without indentation compare byte for byte.
func compact(b []byte) []byte {
	var out bytes.Buffer
	if err := json.Compact(&out, b); err != nil {
		return b
	}
	return out.Bytes()
}

// scratchDir makes a fresh directory for journals under .bench_tmp in
// the working directory.
func scratchDir(name string) (string, error) {
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_tmp", name+"-")
}

// failLatency stands in for the latency of a request that failed or was
// refused: it misses every latency percentile.
const failLatency = time.Minute
