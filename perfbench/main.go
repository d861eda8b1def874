// Command perfbench is the repository's cold-path serving benchmark. It
// starts internal/server in process on loopback, drives one named
// workload over two connections for a fixed window, checks every
// response, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of standard
// output. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload estimate-cold --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// rssSlices is how many parts of the measured window peak_rss_mb
// averages the peak RSS over.
const rssSlices = 9

// setupRounds is how many times a run builds the server, corpus and
// warm-up; setup_s is their median and the last one is measured.
const setupRounds = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "estimate-cold or flow-verify")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 45, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics, adding the traced replay")
	flag.Parse()
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed int64, window time.Duration, traced bool) (*result, error) {
	var (
		w      *workload
		h      *harness
		setups []float64
	)
	for k := 0; k < setupRounds; k++ {
		if h != nil {
			h.close()
		}
		t0 := time.Now()
		var err error
		if w, err = newWorkload(name, seed); err != nil {
			return nil, err
		}
		if h, err = startServer(w.clients); err != nil {
			return nil, err
		}
		if err := h.warmUp(w.warm, w.clients); err != nil {
			h.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer h.close()

	before, err := h.metrics()
	if err != nil {
		return nil, err
	}
	// Every window starts from the same memory state: the earlier
	// set-ups' garbage collected and returned to the OS, and the peak
	// RSS reset, so that the peaks are the window's own.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetHWM(); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	rssc := peakRSS(rssSlices, window/rssSlices, stop)
	ms := h.closedLoop(w.stream, w.clients, time.Now(), window)
	close(stop)
	rss := <-rssc
	if rss.err != nil {
		return nil, rss.err
	}
	after, err := h.metrics()
	if err != nil {
		return nil, err
	}
	violations := checkRun(w, ms, seed, before, after)

	n := len(ms.samples)
	res := &result{Attempted: n, Failed: len(ms.failed), Correct: len(ms.failed) == 0 && len(violations) == 0, Metrics: metrics{}}
	shown := 0
	for p := range ms.samples {
		if why, bad := ms.failed[p]; bad && shown < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: failed %s: %s\n", ms.req(p).path, why)
			shown++
		}
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "perfbench:", v)
	}
	fmt.Printf("workload %s seed %d (closed loop, %d clients): sent %d, succeeded %d, failed %d, error_rate %.4g; latency samples %d\n",
		name, seed, w.clients, n, n-res.Failed, res.Failed, ratio(float64(res.Failed), float64(n)), n-res.Failed)
	fmt.Printf("peak RSS per window slice (MB): %.1f\n", rss.mb)

	m := res.Metrics
	if traced {
		serverLayer(ms, before, after, m)
		m.add("process.window_peak_rss_mb", slices.Max(rss.mb), "MB")
		if err := tracedReplay(ms, name, seed, window/2, m); err != nil {
			return nil, err
		}
	} else {
		m.add("setup_s", median(setups), "s")
		endToEnd(w, ms, rss.mb, m)
	}
	printMetrics(m)
	return res, nil
}

// serverLayer adds the server's per-layer metrics, read from the measured
// (never traced) HTTP run: X-Cache dispositions and /metrics deltas.
func serverLayer(ms *measured, before, after metricsSnapshot, m metrics) {
	hits := 0
	for _, s := range ms.samples {
		if s.cache == cacheHit {
			hits++
		}
	}
	m.add("error_rate", ratio(float64(len(ms.failed)), float64(len(ms.samples))), "ratio")
	m.add("server.result_cache.hit_ratio", ratio(float64(hits), float64(len(ms.samples))), "ratio")
	netHits := after.counter("server.cache.net.hits") - before.counter("server.cache.net.hits")
	netMisses := after.counter("server.cache.net.misses") - before.counter("server.cache.net.misses")
	m.add("server.net_cache.hit_ratio", ratio(netHits, netHits+netMisses), "ratio")
	queue := map[int64]int64{}
	for _, ep := range []string{"estimate", "flow"} {
		hist := "server.http." + ep + ".queue_us"
		for lo, n := range bucketDelta(after.histogram(hist), before.histogram(hist)) {
			queue[lo] += n
		}
	}
	m.add("server.queue_wait_p50_us", bucketQuantile(queue, 0.50), "us")
	m.add("server.queue_wait_p99_us", bucketQuantile(queue, 0.99), "us")
}

// tracedReplay replays the workload's generated requests in process,
// untraced and traced over the same prefix, and adds the per-layer
// metrics. The span trees are written once, at the end, under
// .bench_build/traces.
func tracedReplay(ms *measured, name string, seed int64, budget time.Duration, m metrics) error {
	n, plain, tracedWall, trees, err := replay(ms.reqs, budget)
	if err != nil {
		return err
	}
	st := aggregate(trees)
	st.layerMetrics(m)
	m.add("trace.overhead_ratio", ratio(tracedWall.Seconds(), plain.Seconds()), "ratio")
	if a := m["trace.attributed_ratio"].Value; a < 0.9 {
		fmt.Printf("trace: only %.1f%% of traced request time is attributed to named layers (%.1f%% unattributed)\n", 100*a, 100*(1-a))
	}
	shares := st.layerShares()
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("trace: %d requests replayed;", n)
	for _, l := range layers {
		fmt.Printf(" %s %.1f%%", l, 100*shares[l])
	}
	fmt.Println()

	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(trees)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), b, 0o644)
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
