package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// result is the outcome of one op.
type result struct {
	lat  time.Duration // send → last response byte
	err  error         // transport error, unexpected status or failed check
	body []byte        // plan-miss: the response, checked after the run
}

// loadgen drives one server with closed-loop clients.
type loadgen struct {
	hc   *http.Client
	base string
	refs map[int][]byte // plan-hot: each batch's reference, see batchPrefix
	keep bool           // retain bodies for the post-run checks
}

func newLoadgen(s *server, w *workloadSpec) *loadgen {
	tr := &http.Transport{
		MaxIdleConnsPerHost: w.clients,
		DisableCompression:  true,
	}
	return &loadgen{
		hc:   &http.Client{Transport: tr, Timeout: 120 * time.Second},
		base: s.base,
		keep: w.name == "plan-miss",
	}
}

func (g *loadgen) close() { g.hc.CloseIdleConnections() }

// run sends every op of list with `clients` closed-loop clients: each
// takes the next unsent op as soon as its previous one completed, so
// the list is a fixed amount of work whatever the server's speed. It
// fills results (one per op) and returns the wall time of the whole
// list. When logs is non-nil, client i records its spans in logs[i],
// tagging op i's spans with trace i.
func (g *loadgen) run(ctx context.Context, list []request, results []result, clients int, logs []*spanLog) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		var log *spanLog
		if logs != nil {
			log = logs[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) || ctx.Err() != nil {
					return
				}
				results[i] = g.do(ctx, list[i], &buf, log, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// do performs one op.
func (g *loadgen) do(ctx context.Context, rq request, buf *bytes.Buffer, log *spanLog, trace int) result {
	root := log.begin("client.op", -1, trace)
	defer log.end(root)
	t0 := time.Now()
	sp := log.begin("chainserve.plan", root, trace)
	err := g.post(ctx, rq.path, rq.body, buf)
	log.end(sp)
	r := result{lat: time.Since(t0), err: err}
	if err != nil {
		return r
	}
	// Checked after the latency stamp. plan-hot compares in place: the
	// body is already in buf, and keeping thousands of bodies for a
	// later pass would cost more than the comparison.
	if ref, ok := g.refs[rq.key]; ok && !bytes.Equal(batchPrefix(buf.Bytes()), ref) {
		r.err = fmt.Errorf("plan-hot batch %d: body differs from its set-up response", rq.key)
	}
	if g.keep {
		r.body = bytes.Clone(buf.Bytes())
	}
	return r
}

// post sends body to path and reads the whole response into buf; any
// status but 200 is an error.
func (g *loadgen) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("POST %s: read body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// batchPrefix is a /v1/plan/batch response up to its closing
// elapsed_ms field: every response of the batch, byte for byte, without
// the one field that differs between two sends of the same batch.
func batchPrefix(body []byte) []byte {
	i := bytes.LastIndex(body, []byte(`"elapsed_ms":`))
	if i < 0 {
		return nil
	}
	return body[:i]
}
