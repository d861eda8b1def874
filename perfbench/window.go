package main

import "time"

// endToEnd adds the timed end-to-end metrics (setup_s aside). Timings
// are taken over the whole measured window: the percentiles over all its
// successful requests, the throughput over the time from its start to
// its last completion. peak_rss_mb is the mean of the window's
// per-slice peaks (rssMB), so a spike in any slice raises it in
// proportion: over three sets of ten flow-verify runs the whole
// window's single peak spread by 0.13 to 0.22 (IQR over median), close
// to the largest bound a metric may have, and the mean by 0.04 to 0.09.
func endToEnd(w *workload, ms *measured, rssMB []float64, m metrics) {
	var lat []float64
	var last time.Duration
	met := 0
	for p, s := range ms.samples {
		if s.end > last {
			last = s.end
		}
		if !ms.ok(p) {
			continue
		}
		lat = append(lat, s.latency().Seconds()*1e3)
		if s.latency() <= w.slo {
			met++
		}
	}
	n := float64(len(ms.samples))
	m.add("throughput_rps", ratio(float64(len(lat)), last.Seconds()), "1/s")
	m.add("latency_p50_ms", quantile(lat, 0.50), "ms")
	m.add("latency_p90_ms", quantile(lat, 0.90), "ms")
	m.add("latency_p99_ms", quantile(lat, 0.99), "ms")
	mean := 0.0
	for _, mb := range rssMB {
		mean += mb / float64(len(rssMB))
	}
	m.add("peak_rss_mb", mean, "MB")
	m.add("success_ratio", ratio(float64(len(lat)), n), "ratio")
	m.add("slo_attainment", ratio(float64(met), n), "ratio")
}
