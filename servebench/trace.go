package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/policy"
	"repro/internal/serve"
)

// stageSet accumulates the calls and time of named stages.
type stageSet struct {
	stats map[string]*stageStat
	order []string // first-seen order
}

type stageStat struct {
	calls int64
	ns    int64
}

func (s *stageSet) add(name string, calls int64, d time.Duration) {
	if s.stats == nil {
		s.stats = make(map[string]*stageStat)
	}
	st, ok := s.stats[name]
	if !ok {
		st = &stageStat{}
		s.stats[name] = st
		s.order = append(s.order, name)
	}
	st.calls += calls
	st.ns += d.Nanoseconds()
}

// meanNS is the mean time per call of a stage, and whether it ran.
func (s *stageSet) meanNS(name string) (float64, bool) {
	st, ok := s.stats[name]
	if !ok || st.calls == 0 {
		return 0, false
	}
	return float64(st.ns) / float64(st.calls), true
}

// timed runs f, adding its duration to st as one call of name when st is
// not nil.
func timed(st *stageSet, name string, f func()) {
	if st == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	st.add(name, 1, time.Since(t0))
}

// span is one traced interval. A request's handler span has parent 0; its
// replayed stages are children of it.
type span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// spanKeepRequests bounds the span dump: the spans of this many requests
// are kept in memory, while the stage totals cover every request.
const spanKeepRequests = 5000

// tracer records a handler span per request and a child span per replayed
// stage.
type tracer struct {
	stageSet
	epoch     time.Time
	keep      int64
	reqs      int64
	handlerNS int64
	spans     []span
	parent    int64 // the current request's handler span id
	enc       bytes.Buffer
}

func newTracer(keep int64) *tracer { return &tracer{epoch: time.Now(), keep: keep} }

// request opens request number reqs+1 with its handler span.
func (t *tracer) request(t0, t1 time.Time) {
	t.reqs++
	t.handlerNS += t1.Sub(t0).Nanoseconds()
	t.parent = t.record("serve.handler", 0, t0, t1)
}

// stage runs f as a replayed stage of the current request.
func (t *tracer) stage(name string, f func()) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	t.add(name, 1, t1.Sub(t0))
	t.record(name, t.parent, t0, t1)
}

func (t *tracer) record(name string, parent int64, t0, t1 time.Time) int64 {
	if t.reqs > t.keep {
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Req: t.reqs, ID: id, Parent: parent, Name: name,
		Start: t0.Sub(t.epoch).Nanoseconds(), End: t1.Sub(t.epoch).Nanoseconds()})
	return id
}

// encode writes v the way the server's writeJSON does.
func (t *tracer) encode(v any) {
	t.enc.Reset()
	e := json.NewEncoder(&t.enc)
	e.SetIndent("", "  ")
	_ = e.Encode(v) // a bytes.Buffer write cannot fail
}

// replayedNS is the total time of all replayed stages.
func (t *tracer) replayedNS() int64 {
	var n int64
	for _, st := range t.stats {
		n += st.ns
	}
	return n
}

// printTable prints the workload's layer table: each replayed stage's
// calls, time per call, time per request and share of handler time, then
// the residual the stages do not account for.
func (t *tracer) printTable(out io.Writer, name string, tracedP50, untracedP50 float64) {
	reqs := float64(max(t.reqs, 1))
	handler := float64(max(t.handlerNS, 1))
	fmt.Fprintf(out, "layer table: %s, %d traced requests\n", name, t.reqs)
	fmt.Fprintf(out, "  %-26s %9s %14s %14s %8s\n", "stage", "calls", "us/call", "us/request", "share")
	for _, n := range t.order {
		st := t.stats[n]
		fmt.Fprintf(out, "  %-26s %9d %14.3f %14.3f %7.1f%%\n", n, st.calls,
			float64(st.ns)/float64(st.calls)/1e3, float64(st.ns)/reqs/1e3, 100*float64(st.ns)/handler)
	}
	replayed := float64(t.replayedNS())
	fmt.Fprintf(out, "  %-26s %9s %14s %14.3f %7.1f%%\n", "replayed layers", "", "", replayed/reqs/1e3, 100*replayed/handler)
	fmt.Fprintf(out, "  %-26s %9s %14s %14.3f %7.1f%%\n", "serve.overhead (residual)", "", "", (handler-replayed)/reqs/1e3, 100*(handler-replayed)/handler)
	fmt.Fprintf(out, "  %-26s %9d %14s %14.3f %7.1f%%\n", "serve.handler", t.reqs, "", handler/reqs/1e3, 100.0)
	fmt.Fprintf(out, "tracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms = %.4f ms\n",
		tracedP50, untracedP50, tracedP50-untracedP50)
}

// dump writes the kept spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}

// layerSpec maps a per-layer metric to the stage it reports.
type layerSpec struct {
	name, unit, stage string
	nsPerUnit         float64
}

// stageMetrics are reported from the workload's own replayed requests when
// they make that call, and from the probe otherwise.
var stageMetrics = []layerSpec{
	{"instio.read_us", "us", "instio.read", 1e3},
	{"serve.canonicalize_us", "us", "serve.canonicalize", 1e3},
	{"serve.hash_us", "us", "serve.hash", 1e3},
	{"serve.encode_us", "us", "serve.encode", 1e3},
	{"core.seq_ms.k10", "ms", "core.seq.k10", 1e6},
	{"core.seq_ms.k14", "ms", "core.seq.k14", 1e6},
	{"core.seq_ms.k16", "ms", "core.seq.k16", 1e6},
	{"core.seq_ms.k18", "ms", "core.seq.k18", 1e6},
	{"core.parallel_ms.k18", "ms", "core.parallel.k18", 1e6},
	{"core.batch_ms.g8k14", "ms", "core.batch.g8k14", 1e6},
	{"core.tree_us.k16", "us", "core.tree.k16", 1e3},
	{"certify.check_us.k10", "us", "certify.check.k10", 1e3},
	{"certify.check_us.k16", "us", "certify.check.k16", 1e3},
	{"policy.verify_us", "us", "policy.verify", 1e3},
	{"policy.sign_us", "us", "policy.sign", 1e3},
}

// probe holds the probe's stage times and exact counts.
type probe struct {
	stageSet
	ops            int64   // Solution.Ops of the K=16 probe instance
	nsPerOp        float64 // its DP time per op
	allocsPerSolve float64
	bytesPerSolve  float64
}

// probe sizes: calls per stage, chosen so each probe stage runs for tens
// of milliseconds at most.
var probeSolves = map[int]int{10: 64, 14: 16, 16: 6, 18: 3}

const (
	probeCodec = 256     // decode/canonicalize/hash/encode calls
	probeLoop  = 1 << 16 // Store.ByKey and Artifact.Step calls, timed as one loop each
	probeMAC   = 4096    // Keyring.Sign and Verify calls
	probeBatch = 4       // K=14 batch solves of 8 re-weightings
)

// runProbe times, on inputs generated from seed, every stage a per-layer
// metric needs that the workload's traffic did not replay, plus the stages
// that are always probed: the K=16 solve behind the exact counts, the
// policy compile, and the sub-microsecond policy lookup and step, which
// are timed over loops because a span's own clock reads would dominate
// them.
func runProbe(seed int64, traffic *tracer) *probe {
	pr := &probe{}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	missing := func(stage string) bool {
		_, ok := traffic.meanNS(stage)
		return !ok
	}
	if missing("instio.read") || missing("serve.canonicalize") || missing("serve.hash") || missing("serve.encode") {
		probeCodecStages(pr, generate(rng.Int63(), 0, 12))
	}
	for _, k := range []int{10, 14, 16, 18} {
		if k == 16 || missing(fmt.Sprintf("core.seq.k%d", k)) || missing(fmt.Sprintf("certify.check.k%d", k)) {
			probeSeq(pr, generate(rng.Int63(), 0, k), probeSolves[k])
		}
	}
	if missing("core.parallel.k18") {
		p := generate(rng.Int63(), 0, 18)
		for i := 0; i < probeSolves[18]; i++ {
			t0 := time.Now()
			sol, err := core.SolveParallelPooledCtx(context.Background(), p, runtime.GOMAXPROCS(0), nil, nil, nil)
			pr.add("core.parallel.k18", 1, time.Since(t0))
			if err == nil {
				sol.Release()
			}
		}
	}
	if missing("core.batch.g8k14") {
		base := generate(rng.Int63(), 0, 14)
		ps := make([]*core.Problem, 8)
		for i := range ps {
			ps[i] = base.Clone()
			for j := range ps[i].Weights {
				ps[i].Weights[j] = uint64(rng.Intn(50) + 1)
			}
		}
		for i := 0; i < probeBatch; i++ {
			t0 := time.Now()
			sols, err := core.SolveBatchCtx(context.Background(), ps, runtime.GOMAXPROCS(0), nil)
			pr.add("core.batch.g8k14", 1, time.Since(t0))
			if err == nil {
				for _, s := range sols {
					s.Release()
				}
			}
		}
	}
	probePolicy(pr, rng)
	return pr
}

// probeCodecStages times the request-path stages on one instance body.
func probeCodecStages(pr *probe, p *core.Problem) {
	body := encodeInstance(p)
	canon := serve.Canonicalize(p)
	hash, _ := serve.Hash(canon)
	cost := uint64(0)
	resp := &serve.SolveResponse{InstanceHash: hash, K: p.K, Actions: len(p.Actions), Engine: "seq",
		SolvedBy: "seq", Cached: true, CertifyMode: "fast", Adequate: true, Cost: &cost, FirstAction: p.Actions[0].Name}
	var tr tracer
	for i := 0; i < probeCodec; i++ {
		timed(&pr.stageSet, "instio.read", func() { _, _ = instio.Read(bytes.NewReader(body)) })
		timed(&pr.stageSet, "serve.canonicalize", func() { _ = serve.Canonicalize(p) })
		timed(&pr.stageSet, "serve.hash", func() { _, _ = serve.Hash(canon) })
		timed(&pr.stageSet, "serve.encode", func() { tr.encode(resp) })
	}
}

// probeSeq times n seq solves of p with tree extraction and certification.
// At K=16 it also takes the exact counts: Ops, and the allocations of one
// solve with warm table pools.
func probeSeq(pr *probe, p *core.Problem, n int) {
	k := fmt.Sprintf(".k%d", p.K)
	for i := 0; i < n; i++ {
		var ms0, ms1 runtime.MemStats
		if p.K == 16 && i == n-1 {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		sol, err := core.SolveCheckpointedCtx(context.Background(), p, nil, nil)
		d := time.Since(t0)
		if p.K == 16 && i == n-1 {
			runtime.ReadMemStats(&ms1)
			pr.allocsPerSolve = float64(ms1.Mallocs - ms0.Mallocs)
			pr.bytesPerSolve = float64(ms1.TotalAlloc - ms0.TotalAlloc)
		}
		if err != nil {
			return
		}
		pr.add("core.seq"+k, 1, d)
		var tree *core.Node
		timed(&pr.stageSet, "core.tree"+k, func() { tree, _ = sol.Tree(p) })
		timed(&pr.stageSet, "certify.check"+k, func() { certifyFast(p, sol, tree) })
		if p.K == 16 {
			pr.ops = sol.Ops
		}
		sol.Release()
	}
	if p.K == 16 && pr.ops > 0 {
		mean, _ := pr.meanNS("core.seq.k16")
		pr.nsPerOp = mean / float64(pr.ops)
	}
}

// probePolicy compiles route policies and times the route plane's
// per-step calls.
func probePolicy(pr *probe, rng *rand.Rand) {
	m, arts, err := compilePolicies(routeProblems(rng, 4), &pr.stageSet)
	if err != nil || len(arts) == 0 {
		return
	}
	art := arts[0]
	c := policy.Cursor{Artifact: art.Key(), Node: art.Root, Session: 1}
	signed := m.kr.Sign(c)
	t0 := time.Now()
	for i := 0; i < probeMAC; i++ {
		signed = m.kr.Sign(c)
	}
	pr.add("policy.sign", probeMAC, time.Since(t0))
	t0 = time.Now()
	for i := 0; i < probeMAC; i++ {
		c, _ = m.kr.Verify(signed)
	}
	pr.add("policy.verify", probeMAC, time.Since(t0))
	keys := make([]uint64, len(arts))
	for i, a := range arts {
		keys[i] = a.Key()
	}
	var found int
	t0 = time.Now()
	for i := 0; i < probeLoop; i++ {
		if _, ok := m.store.ByKey(keys[i%len(keys)]); ok {
			found++
		}
	}
	pr.add("policy.lookup", probeLoop, time.Since(t0))
	node := art.Root
	t0 = time.Now()
	for i := 0; i < probeLoop; i++ {
		next, _ := art.Step(node, i&1 == 0)
		if next < 0 {
			next = art.Root
		}
		node = next
	}
	pr.add("policy.step", probeLoop, time.Since(t0))
	if found != probeLoop || node < 0 {
		panic("policy probe lost a resident artifact")
	}
}

// layerMetrics assembles a traced run's per-layer metrics.
func layerMetrics(tr *tracer, pr *probe, counts map[string]metric, out io.Writer) map[string]metric {
	m := make(map[string]metric, len(stageMetrics)+len(counts)+12)
	pick := func(stage string) (float64, string) {
		if v, ok := tr.meanNS(stage); ok {
			return v, "traffic"
		}
		v, _ := pr.meanNS(stage)
		return v, "probe"
	}
	fmt.Fprintln(out, "per-layer metric sources:")
	for _, s := range stageMetrics {
		v, src := pick(s.stage)
		m[s.name] = metric{v / s.nsPerUnit, s.unit}
		fmt.Fprintf(out, "  %-28s %s\n", s.name, src)
	}
	seq18, _ := pick("core.seq.k18")
	par18, _ := pick("core.parallel.k18")
	m["core.parallel_speedup.k18"] = metric{seq18 / par18, "ratio"}
	lookup, _ := pr.meanNS("policy.lookup")
	step, _ := pr.meanNS("policy.step")
	compile, _ := pr.meanNS("policy.compile")
	m["policy.lookup_ns"] = metric{lookup, "ns"}
	m["policy.step_ns"] = metric{step, "ns"}
	m["policy.compile_us"] = metric{compile / 1e3, "us"}
	m["core.ops.k16"] = metric{float64(pr.ops), "count"}
	m["core.ns_per_op"] = metric{pr.nsPerOp, "ns"}
	m["core.allocs_per_solve.k16"] = metric{pr.allocsPerSolve, "count"}
	m["core.bytes_per_solve.k16"] = metric{pr.bytesPerSolve, "B"}
	reqs := float64(max(tr.reqs, 1))
	m["serve.handler_us"] = metric{float64(tr.handlerNS) / reqs / 1e3, "us"}
	m["serve.overhead_us"] = metric{float64(tr.handlerNS-tr.replayedNS()) / reqs / 1e3, "us"}
	m["serve.layer_share"] = metric{float64(tr.replayedNS()) / float64(max(tr.handlerNS, 1)), "ratio"}
	for k, v := range counts {
		m[k] = v
	}
	return m
}
