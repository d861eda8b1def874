package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// Wire types of the server's JSON API, as a client writes them. Every
// option is spelled out so the benchmark does not depend on server-side
// defaults.

type estimateReq struct {
	Circuit     string  `json:"circuit,omitempty"`
	BLIF        string  `json:"blif,omitempty"`
	Estimator   string  `json:"estimator"`
	Vectors     int     `json:"vectors"`
	Seed        int64   `json:"seed"`
	P1          float64 `json:"p1"`
	BDDMaxNodes int     `json:"bdd_max_nodes,omitempty"`
}

type flowReq struct {
	Circuit     string `json:"circuit"`
	Flow        string `json:"flow"`
	Seed        int64  `json:"seed"`
	Incremental bool   `json:"incremental,omitempty"`
}

// request is one generated HTTP request plus what the checks and the
// traced replay need to know about it.
type request struct {
	path string
	body []byte
	est  *estimateReq // POST /v1/estimate
	flow *flowReq     // POST /v1/flow
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types above always marshal
	}
	return b
}

func newEstimate(e *estimateReq) *request {
	return &request{path: "/v1/estimate", body: mustJSON(e), est: e}
}

func newFlow(f *flowReq) *request {
	return &request{path: "/v1/flow", body: mustJSON(f), flow: f}
}

// mix64 is splitmix64's finaliser: a bijective scrambler used to derive
// per-request parameters from (seed, index) without shared RNG state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniqueP1 draws the input one-probability of request i from (seed,
// salt, i). Distinct indices give distinct values (up to a 2^-53
// collision chance), so no two cold estimates share a result-cache key.
func uniqueP1(seed int64, salt uint64, i int) float64 {
	u := mix64(mix64(uint64(seed)^salt) + uint64(i))
	return 0.1 + 0.8*float64(u>>11)/float64(1<<53)
}

const (
	saltMeasured = 0x6d656173 // "meas"
	saltWarm     = 0x7761726d // "warm"
)

// workload is one named traffic mix. Its clients form a closed loop:
// they send stream.get(0), stream.get(1), ... as fast as the server
// answers.
type workload struct {
	name    string
	clients int
	// slo is the latency objective slo_attainment counts against.
	slo    time.Duration
	stream *stream
	warm   []*request
}

// stream is a closed-loop request sequence, extended one shuffled deck
// cycle at a time: every cycle holds each template of the deck exactly
// once, so the mix's proportions are exact over whole cycles and nearly
// exact over any long prefix.
type stream struct {
	mu    sync.Mutex
	items []*request
	cycle int
	fill  func(cycle, start int) []*request
}

func (s *stream) get(i int) *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.items) <= i {
		next := s.fill(s.cycle, len(s.items))
		s.items = append(s.items, next...)
		s.cycle++
	}
	return s.items[i]
}

// prefix returns the first n requests of the stream.
func (s *stream) prefix(n int) []*request {
	if n > 0 {
		s.get(n - 1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*request(nil), s.items[:n]...)
}

func shuffled[T any](seed int64, cycle int, deck []T) []T {
	r := rand.New(rand.NewSource(seed*1000003 + int64(cycle)))
	out := make([]T, len(deck))
	for i, j := range r.Perm(len(deck)) {
		out[i] = deck[j]
	}
	return out
}

// The estimate-cold corpus: small and medium generator circuits, three
// wide ones that need the BDD budget, and two uploads-only multipliers
// whose exact estimates walk the whole exact -> reorder -> Monte Carlo
// ladder.
var (
	coldCircuits = []string{"mult4", "mult5", "mult6", "cla8", "cmp8", "par16", "dec5", "radd8", "alu4", "cmp16", "radd16", "mux16"}
	wideCircuits = map[string]bool{"cmp16": true, "radd16": true, "mux16": true}
	uploadOnly   = map[string]int{"mult7": 7, "mult8": 8}
	estimators   = []string{"exact", "propagated", "packed", "simulated"}
)

// coldBudget is the BDD node budget carried by wide and uploaded circuits.
const coldBudget = 20000

func vectorsFor(estimator string) int {
	switch estimator {
	case "packed":
		return 4096
	default:
		return 1000
	}
}

// blifCorpus renders every uploadable circuit as BLIF text once.
func blifCorpus() (map[string]string, error) {
	out := make(map[string]string)
	names := append([]string(nil), coldCircuits...)
	for n := range uploadOnly {
		names = append(names, n)
	}
	for _, n := range names {
		var nw *logic.Network
		var err error
		if k, ok := uploadOnly[n]; ok {
			nw, err = circuits.ArrayMultiplier(k)
		} else {
			nw, err = circuits.Named(n)
		}
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		if err := logic.WriteBLIF(&b, nw); err != nil {
			return nil, fmt.Errorf("write %s: %w", n, err)
		}
		out[n] = b.String()
	}
	return out, nil
}

// renamed gives an uploaded BLIF a fresh model name, so its text (and
// therefore the server's network-cache key) is new and the server parses
// it again.
func renamed(text, tag string) string {
	first, rest, _ := strings.Cut(text, "\n")
	return first + "_" + tag + "\n" + rest
}

type estTemplate struct {
	circuit   string
	estimator string
	upload    bool
}

func (t estTemplate) build(blif map[string]string, p1 float64, tag string) *request {
	e := &estimateReq{Estimator: t.estimator, Vectors: vectorsFor(t.estimator), Seed: 1, P1: p1}
	if t.upload {
		e.BLIF = renamed(blif[t.circuit], tag)
		e.BDDMaxNodes = coldBudget
	} else {
		e.Circuit = t.circuit
		if wideCircuits[t.circuit] {
			e.BDDMaxNodes = coldBudget
		}
	}
	return newEstimate(e)
}

func estimateColdDeck() []estTemplate {
	var deck []estTemplate
	for copy := 0; copy < 3; copy++ {
		for _, c := range coldCircuits {
			for _, e := range estimators {
				deck = append(deck, estTemplate{c, e, false})
			}
		}
	}
	uploads := append([]string(nil), coldCircuits...)
	uploads = append(uploads, "mult7", "mult8")
	for _, c := range uploads {
		for _, e := range estimators {
			deck = append(deck, estTemplate{c, e, true})
		}
	}
	// Two more copies of the ladder requests put them at ~3% of the mix,
	// so latency_p99_ms falls inside that class, not on a class edge.
	for copy := 0; copy < 2; copy++ {
		deck = append(deck, estTemplate{"mult7", "exact", true}, estTemplate{"mult8", "exact", true})
	}
	return deck
}

func estimateCold(seed int64) (*workload, error) {
	blif, err := blifCorpus()
	if err != nil {
		return nil, err
	}
	deck := estimateColdDeck()
	w := &workload{name: "estimate-cold", clients: 2, slo: 50 * time.Millisecond}
	w.stream = &stream{fill: func(cycle, start int) []*request {
		var out []*request
		for k, t := range shuffled(seed, cycle, deck) {
			i := start + k
			out = append(out, t.build(blif, uniqueP1(seed, saltMeasured, i), fmt.Sprintf("s%d_%d", seed, i)))
		}
		return out
	}}
	// Warm-up: every generator circuit with every estimator, and the
	// upload path with every estimator, once each, with p1 values from a
	// separate stream so no measured request can hit what warm-up cached.
	for _, c := range coldCircuits {
		for _, e := range estimators {
			w.warm = append(w.warm, estTemplate{c, e, false}.build(blif, uniqueP1(seed, saltWarm, len(w.warm)), ""))
		}
	}
	for _, e := range estimators {
		i := len(w.warm)
		w.warm = append(w.warm, estTemplate{"mult4", e, true}.build(blif, uniqueP1(seed, saltWarm, i), fmt.Sprintf("w%d", i)))
	}
	return w, nil
}

// The flow-verify corpus. lowpower on cmp8 (~1 s alone) is left out;
// radd8 has 17 inputs, so its flows run unverified.
var (
	flowCircuits = []string{"mult4", "mult5", "alu4", "dec5", "cmp8", "par16", "radd8"}
	flowNames    = []string{"glitch", "bddmux", "lowpower"}
)

func flowVerify(seed int64) (*workload, error) {
	var pairs [][2]string
	for _, c := range flowCircuits {
		for _, f := range flowNames {
			if c == "cmp8" && f == "lowpower" {
				continue
			}
			pairs = append(pairs, [2]string{c, f})
		}
	}
	// Each deck cycle runs every pair classically and, for a fifth of
	// the mix, the glitch flow of the five cheapest circuits
	// incrementally.
	type tmpl struct {
		circuit, flow string
		incr          bool
	}
	var deck []tmpl
	for _, p := range pairs {
		deck = append(deck, tmpl{p[0], p[1], false})
	}
	for _, c := range []string{"mult4", "mult5", "alu4", "dec5", "radd8"} {
		deck = append(deck, tmpl{c, "glitch", true})
	}
	w := &workload{name: "flow-verify", clients: 2, slo: 450 * time.Millisecond}
	base := seed * 1000003
	w.stream = &stream{fill: func(cycle, start int) []*request {
		var out []*request
		for k, t := range shuffled(seed, cycle, deck) {
			out = append(out, newFlow(&flowReq{Circuit: t.circuit, Flow: t.flow, Seed: base + int64(start+k) + 1, Incremental: t.incr}))
		}
		return out
	}}
	// Warm-up: resolve every circuit, and run each flow on dec5 and
	// mult4, classically and incrementally.
	for i, c := range flowCircuits {
		w.warm = append(w.warm, newEstimate(&estimateReq{Circuit: c, Estimator: "propagated", Vectors: 1000, Seed: 1, P1: uniqueP1(seed, saltWarm, i)}))
	}
	for _, c := range []string{"dec5", "mult4"} {
		for _, f := range flowNames {
			for _, incr := range []bool{false, true} {
				w.warm = append(w.warm, newFlow(&flowReq{Circuit: c, Flow: f, Seed: -seed - 1, Incremental: incr}))
			}
		}
	}
	return w, nil
}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "estimate-cold":
		return estimateCold(seed)
	case "flow-verify":
		return flowVerify(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want estimate-cold or flow-verify)", name)
}
