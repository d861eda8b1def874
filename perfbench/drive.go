package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// harness is one in-process server on loopback plus the client that
// drives it over at most two connections.
type harness struct {
	hs     *http.Server
	done   chan error
	base   string
	client *http.Client
}

func startServer(conns int) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		hs:   &http.Server{Handler: server.New(server.Config{}).Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

// close shuts the server down and waits for its serve loop to return.
func (h *harness) close() {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.hs.Shutdown(ctx); err != nil {
		h.hs.Close()
	}
	if err := <-h.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// response is what the client saw for one request.
type response struct {
	status int
	cache  string // X-Cache header
	body   []byte
	err    error
}

func (h *harness) do(r *request) response {
	resp, err := h.client.Post(h.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body, err: err}
}

func (r response) ok() bool { return r.err == nil && r.status/100 == 2 }

// metricsSnapshot is the server's /metrics JSON export.
type metricsSnapshot map[string]json.RawMessage

func (h *harness) metrics() (metricsSnapshot, error) {
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}

func (m metricsSnapshot) counter(name string) float64 {
	var v float64
	json.Unmarshal(m[name], &v) // absent counters read as 0
	return v
}

// histogram returns a histogram's log2 buckets (lower bound -> count).
func (m metricsSnapshot) histogram(name string) map[int64]int64 {
	var h struct {
		Buckets map[string]int64 `json:"buckets"`
	}
	json.Unmarshal(m[name], &h) // absent histograms read as empty
	out := make(map[int64]int64, len(h.Buckets))
	for k, n := range h.Buckets {
		lo, err := strconv.ParseInt(k, 10, 64)
		if err == nil {
			out[lo] = n
		}
	}
	return out
}

// bucketDelta subtracts two bucket snapshots of one histogram.
func bucketDelta(after, before map[int64]int64) map[int64]int64 {
	out := make(map[int64]int64, len(after))
	for lo, n := range after {
		if d := n - before[lo]; d > 0 {
			out[lo] = d
		}
	}
	return out
}

// X-Cache dispositions as a sample stores them.
const (
	cacheNone uint8 = iota
	cacheMiss
	cacheHit
	cacheCoalesced
)

func cacheCode(header string) uint8 {
	switch header {
	case "miss":
		return cacheMiss
	case "hit":
		return cacheHit
	case "coalesced":
		return cacheCoalesced
	}
	return cacheNone
}

// sample is one measured request. Times are offsets from the start of
// the measured window: send is when a client sent the request, end when
// its body had been read.
type sample struct {
	send, end time.Duration
	sum       uint64 // FNV-64a of the body without its framing newline
	req       int32  // index into measured.reqs
	status    int16
	cache     uint8
}

// latency is the request's round trip, from the send to the last byte.
func (s *sample) latency() time.Duration { return s.end - s.send }

// measured is what a measured window produced; the checks read the
// bodies.
type measured struct {
	reqs    []*request
	samples []sample
	bodies  map[int][]byte // sample position -> response body
	failed  map[int]string // sample position -> why the request failed
}

func (m *measured) req(p int) *request { return m.reqs[m.samples[p].req] }

func (m *measured) ok(p int) bool {
	_, bad := m.failed[p]
	return !bad
}

func bodySum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(bytes.TrimSuffix(b, []byte("\n")))
	return h.Sum64()
}

// send issues r, fills in s's outcome, and returns the body and why the
// request failed, if it did.
func (h *harness) send(r *request, start time.Time, s *sample) (body []byte, failed string) {
	resp := h.do(r)
	s.end = time.Since(start)
	s.status = int16(resp.status)
	s.cache = cacheCode(resp.cache)
	s.sum = bodySum(resp.body)
	if !resp.ok() {
		failed = fmt.Sprintf("status %d err %v: %s", resp.status, resp.err, strings.TrimSpace(string(resp.body)))
	}
	return resp.body, failed
}

// warmUp sends reqs over the harness's connections and fails on any
// error: warm-up is set-up, not measurement.
func (h *harness) warmUp(reqs []*request, clients int) error {
	var next atomic.Int64
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					errs <- nil
					return
				}
				if r := h.do(reqs[i]); !r.ok() {
					errs <- fmt.Errorf("warm-up %s: status %d: %v %s", reqs[i].path, r.status, r.err, r.body)
					return
				}
			}
		}()
	}
	var first error
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closedLoop runs clients that each send the stream's next request as
// soon as their previous one completes, starting new requests for dur.
// Requests in flight at the deadline complete and are measured.
func (h *harness) closedLoop(st *stream, clients int, start time.Time, dur time.Duration) *measured {
	m := &measured{bodies: make(map[int][]byte), failed: make(map[int]string)}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1)) - 1
				s := sample{req: int32(i), send: time.Since(start)}
				body, failed := h.send(st.get(i), start, &s)
				mu.Lock()
				p := len(m.samples)
				m.samples = append(m.samples, s)
				m.bodies[p] = body
				if failed != "" {
					m.failed[p] = failed
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.reqs = st.prefix(int(next.Load()))
	return m
}

// resetHWM resets the process's peak resident set size (VmHWM) to its
// current resident set size.
func resetHWM() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS splits the measured window into slices parts and records the
// process's peak resident set size (VmHWM) in each: the first slices-1
// end every interval, the last when stop closes. VmHWM must have been
// reset when the window started; it is reset again at every cut.
func peakRSS(slices int, interval time.Duration, stop <-chan struct{}) <-chan rssPeaks {
	out := make(chan rssPeaks, 1)
	go func() {
		var r rssPeaks
		cut := func() {
			mb, err := vmHWMMB()
			if err == nil {
				err = resetHWM()
			}
			if err != nil && r.err == nil {
				r.err = err
			}
			r.mb = append(r.mb, mb)
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for len(r.mb) < slices-1 {
			<-tick.C
			cut()
		}
		<-stop
		cut()
		out <- r
	}()
	return out
}

type rssPeaks struct {
	mb  []float64
	err error
}

// vmHWMMB reads the process's peak resident set size (VmHWM).
func vmHWMMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
