package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/serve"
	"repro/internal/workload"
)

const batchPath = "/v1/solve/batch"

// instance is one generated problem with its expected canonical hash and
// its instio wire form.
type instance struct {
	p    *core.Problem
	hash string // serve.Hash(serve.Canonicalize(p)): the expected instance_hash
	body []byte
}

// generate draws instance number i of a generated set: the generator
// rotates over the four families, the universe size is k.
func generate(seed int64, i, k int) *core.Problem {
	switch i % 4 {
	case 0:
		return workload.MedicalDiagnosis(seed, k)
	case 1:
		return workload.FaultLocation(seed, k, 4)
	case 2:
		return workload.SystematicBiology(seed, k)
	default:
		return workload.Random(seed, k, k, k/2)
	}
}

// instanceSet holds a workload's generated instances, distinct by canonical
// hash, and the answers the client saw for them. The answers' costs are
// checked against core.SolveMemo after the timed phase.
type instanceSet struct {
	insts  []instance
	hashes map[string]bool
	rng    *rand.Rand

	answers []answer
	fresh   int64 // answers solved rather than served from cache
}

type answer struct {
	inst int32
	cost uint64 // core.Inf when the response reported no cost
}

func newInstanceSet(seed int64) *instanceSet {
	return &instanceSet{hashes: make(map[string]bool), rng: rand.New(rand.NewSource(seed))}
}

// add stores p unless an instance with the same canonical hash exists, and
// returns its index or -1.
func (s *instanceSet) add(p *core.Problem) int32 {
	hash, err := serve.Hash(serve.Canonicalize(p))
	if err != nil {
		panic(fmt.Sprintf("hashing a generated instance: %v", err))
	}
	if s.hashes[hash] {
		return -1
	}
	s.hashes[hash] = true
	s.insts = append(s.insts, instance{p: p, hash: hash, body: encodeInstance(p)})
	return int32(len(s.insts) - 1)
}

// draw generates a fresh distinct instance with universe k, the family
// chosen by n.
func (s *instanceSet) draw(n, k int) int32 {
	for {
		if i := s.add(generate(s.rng.Int63(), n, k)); i >= 0 {
			return i
		}
	}
}

func encodeInstance(p *core.Problem) []byte {
	var b bytes.Buffer
	if err := instio.Write(&b, p, ""); err != nil {
		panic(fmt.Sprintf("encoding a generated instance: %v", err))
	}
	return b.Bytes()
}

// permuted returns a copy of p with its actions shuffled.
func permuted(p *core.Problem, rng *rand.Rand) *core.Problem {
	c := p.Clone()
	rng.Shuffle(len(c.Actions), func(i, j int) { c.Actions[i], c.Actions[j] = c.Actions[j], c.Actions[i] })
	return c
}

// checkSolve verifies a /v1/solve response for instance i: status 200 and
// the expected instance hash now, the cost after the timed phase.
func (s *instanceSet) checkSolve(i int32, code int, body []byte, t *tally) {
	if code != http.StatusOK {
		t.failed++
		return
	}
	t.answered++
	var resp serve.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.InstanceHash != s.insts[i].hash {
		t.failed++
		return
	}
	s.record(i, resp.Cost, resp.Cached)
}

// checkBatch verifies a /v1/solve/batch response member by member.
func (s *instanceSet) checkBatch(insts []int32, code int, body []byte, t *tally) {
	if code != http.StatusOK {
		t.failed += int64(len(insts))
		return
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Items) != len(insts) {
		t.answered += int64(len(insts))
		t.failed += int64(len(insts))
		return
	}
	for j, i := range insts {
		it := resp.Items[j]
		if it.Error != "" {
			t.failed++
			continue
		}
		t.answered++
		if it.InstanceHash != s.insts[i].hash {
			t.failed++
			continue
		}
		s.record(i, it.Cost, it.Cached)
	}
}

// check verifies a solo or batch solve response.
func (s *instanceSet) check(r *request, code int, body []byte, t *tally) {
	if r.path == batchPath {
		s.checkBatch(r.inst, code, body, t)
		return
	}
	s.checkSolve(r.inst[0], code, body, t)
}

// replay decodes the response again, outside the handler span, and
// replays a solo or batch solve request.
func (s *instanceSet) replay(r *request, body []byte, tr *tracer) {
	if r.path == batchPath {
		var resp serve.BatchResponse
		if json.Unmarshal(body, &resp) == nil {
			replayBatch(tr, r.body, &resp)
		}
		return
	}
	var resp serve.SolveResponse
	if json.Unmarshal(body, &resp) == nil {
		replaySolve(tr, r.body, resp.Engine, &resp)
	}
}

func (s *instanceSet) record(i int32, cost *uint64, cached bool) {
	c := core.Inf
	if cost != nil {
		c = *cost
	}
	s.answers = append(s.answers, answer{inst: i, cost: c})
	if !cached {
		s.fresh++
	}
}

// settle computes the SolveMemo reference for every instance answered and
// counts each answer whose cost differs as failed. The references are
// computed on every core, outside set-up and the timed phase.
func (s *instanceSet) settle(t *tally) {
	need := make(map[int32]bool)
	for _, a := range s.answers {
		need[a.inst] = true
	}
	todo := make([]int32, 0, len(need))
	for i := range need {
		todo = append(todo, i)
	}
	refs := make(map[int32]uint64, len(todo))
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int32)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ref, err := core.SolveMemo(s.insts[i].p)
				mu.Lock()
				if err == nil {
					refs[i] = ref
				}
				mu.Unlock()
			}
		}()
	}
	for _, i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, a := range s.answers {
		if ref, ok := refs[a.inst]; !ok || ref != a.cost {
			t.failed++
		}
	}
	s.answers = s.answers[:0]
}

// freshSolves implements workload.
func (s *instanceSet) freshSolves() int64 { return s.fresh }

// replaySolve re-runs a solo /v1/solve request's stages: decode,
// canonicalize, hash, and on a miss the engine, tree extraction and
// certification, then the response encoding.
func replaySolve(tr *tracer, body []byte, engine string, resp *serve.SolveResponse) {
	var p *core.Problem
	tr.stage("instio.read", func() { p, _ = instio.Read(bytes.NewReader(body)) })
	if p == nil {
		return
	}
	var canon *core.Problem
	tr.stage("serve.canonicalize", func() { canon = serve.Canonicalize(p) })
	tr.stage("serve.hash", func() { _, _ = serve.Hash(canon) })
	if !resp.Cached {
		replayEngine(tr, canon, engine)
	}
	tr.stage("serve.encode", func() { tr.encode(resp) })
}

// replayEngine solves canon with the named engine, extracts the tree and
// certifies it in fast mode, as a miss does inside the server.
func replayEngine(tr *tracer, canon *core.Problem, engine string) {
	ctx := context.Background()
	k := fmt.Sprintf(".k%d", canon.K)
	var sol *core.Solution
	var err error
	if engine == "parallel" {
		tr.stage("core.parallel"+k, func() {
			sol, err = core.SolveParallelPooledCtx(ctx, canon, runtime.GOMAXPROCS(0), nil, nil, nil)
		})
	} else {
		tr.stage("core.seq"+k, func() { sol, err = core.SolveCheckpointedCtx(ctx, canon, nil, nil) })
	}
	if err != nil {
		return
	}
	defer sol.Release()
	var tree *core.Node
	tr.stage("core.tree"+k, func() { tree, _ = sol.Tree(canon) })
	tr.stage("certify.check"+k, func() { certifyFast(canon, sol, tree) })
}

// replayBatch re-runs a /v1/solve/batch request's stages.
func replayBatch(tr *tracer, body []byte, resp *serve.BatchResponse) {
	var ps []*core.Problem
	tr.stage("instio.read_batch", func() { ps, _ = instio.ReadBatch(bytes.NewReader(body)) })
	if len(ps) == 0 {
		return
	}
	canons := make([]*core.Problem, len(ps))
	for i, p := range ps {
		tr.stage("serve.canonicalize", func() { canons[i] = serve.Canonicalize(p) })
		tr.stage("serve.hash", func() { _, _ = serve.Hash(canons[i]) })
	}
	if resp.CacheHits == 0 {
		label := fmt.Sprintf(".g%dk%d", len(ps), ps[0].K)
		k := fmt.Sprintf(".k%d", ps[0].K)
		var sols []*core.Solution
		var err error
		tr.stage("core.batch"+label, func() {
			sols, err = core.SolveBatchCtx(context.Background(), canons, runtime.GOMAXPROCS(0), nil)
		})
		if err == nil {
			for i, sol := range sols {
				var tree *core.Node
				tr.stage("core.tree_from_costs"+k, func() { tree, _ = core.TreeFromCosts(canons[i], sol.C) })
				tr.stage("certify.check"+k, func() { certify.Check(canons[i], sol.Cost, tree, sol.C, nil, certify.ModeFast, 0) })
				sol.Release()
			}
		}
	}
	tr.stage("serve.encode", func() { tr.encode(resp) })
}

// --- cold-solve ---

// coldSolve sends every request with a distinct instance, so every request
// misses the cache. Requests follow a fixed rotation of five slots.
type coldSolve struct {
	*instanceSet
	warm []*request // one rotation of warm-up requests, replayed by every set-up
	reqs []*request // the timed phase's requests, in order
	pos  int
}

// coldSlots is the rotation: the seq engine at K = 14, 16 and 18, the
// parallel engine at K = 18, and a batch of re-weightings of one K = 14
// instance.
var coldSlots = []struct {
	engine string
	k      int
	batch  int
}{
	{"seq", 14, 0}, {"seq", 16, 0}, {"seq", 18, 0}, {"parallel", 18, 0}, {"", 14, 8},
}

// coldRotationsPerSecond sizes the pre-generated inputs: several times the
// rotations a run completes today, so a faster server still runs the whole
// timed phase on distinct instances.
const coldRotationsPerSecond = 20

func newColdSolve(seed int64, seconds float64) *coldSolve {
	w := &coldSolve{instanceSet: newInstanceSet(seed)}
	n := 0
	rotation := func() []*request {
		var rs []*request
		for _, s := range coldSlots {
			if s.batch == 0 {
				path := "/v1/solve"
				if s.engine != "seq" {
					path += "?engine=" + s.engine
				}
				i := w.draw(n, s.k)
				rs = append(rs, &request{path: path, body: w.insts[i].body, ops: 1, inst: []int32{i}})
			} else {
				rs = append(rs, w.batchRequest(n, s.k, s.batch))
			}
			n++
		}
		return rs
	}
	w.warm = rotation()
	rotations := int(seconds*coldRotationsPerSecond) + 1
	for r := 0; r < rotations; r++ {
		w.reqs = append(w.reqs, rotation()...)
	}
	return w
}

// batchRequest builds a batch of size re-weightings of one generated
// instance: the same actions, fresh weights, so all share one lattice.
func (w *coldSolve) batchRequest(n, k, size int) *request {
	base := generate(w.rng.Int63(), n, k)
	r := &request{path: batchPath, ops: size}
	ps := make([]*core.Problem, 0, size)
	for len(ps) < size {
		p := base.Clone()
		for j := range p.Weights {
			p.Weights[j] = uint64(w.rng.Intn(50) + 1)
		}
		if i := w.add(p); i >= 0 {
			r.inst = append(r.inst, i)
			ps = append(ps, p)
		}
	}
	var b bytes.Buffer
	if err := instio.WriteBatch(&b, ps, ""); err != nil {
		panic(fmt.Sprintf("encoding a generated batch: %v", err))
	}
	r.body = b.Bytes()
	return r
}

func (w *coldSolve) tailPct() float64 { return 0.90 }

func (w *coldSolve) setup(c *client) error {
	w.fresh = 0
	for _, r := range w.warm {
		if _, err := c.post(r.path, r.body); err != nil {
			return err
		}
		w.fresh += int64(r.ops)
	}
	return nil
}

func (w *coldSolve) next() *request {
	if w.pos == len(w.reqs) {
		return nil
	}
	w.pos++
	return w.reqs[w.pos-1]
}

// --- hot-solve ---

// hotSolve keeps a resident working set solved during set-up; every timed
// request re-asks one of them with its action order permuted, so every
// request is a cache hit that still canonicalizes.
type hotSolve struct {
	*instanceSet
	perms [][]byte // perms[i*hotPerms+j]: permutation j of instance i
	draws []int32  // pre-drawn indices into perms, cycled
	pos   int
	req   request // reused for every timed request
}

const (
	hotInstances = 256
	hotK         = 12
	hotPerms     = 8
	drawCount    = 1 << 17 // pre-drawn request choices, cycled when a run needs more
)

func newHotSolve(seed int64) *hotSolve {
	w := &hotSolve{instanceSet: newInstanceSet(seed)}
	for n := 0; n < hotInstances; n++ {
		w.draw(n, hotK)
	}
	for _, in := range w.insts {
		for j := 0; j < hotPerms; j++ {
			w.perms = append(w.perms, encodeInstance(permuted(in.p, w.rng)))
		}
	}
	w.draws = make([]int32, drawCount)
	for i := range w.draws {
		w.draws[i] = int32(w.rng.Intn(len(w.perms)))
	}
	return w
}

func (w *hotSolve) tailPct() float64 { return 0.999 }

func (w *hotSolve) setup(c *client) error {
	w.fresh = 0
	for _, in := range w.insts {
		if _, err := c.post("/v1/solve", in.body); err != nil {
			return err
		}
		w.fresh++
	}
	return nil
}

func (w *hotSolve) next() *request {
	d := w.draws[w.pos%len(w.draws)]
	w.pos++
	w.req = request{path: "/v1/solve", body: w.perms[d], ops: 1, inst: append(w.req.inst[:0], d/hotPerms)}
	return &w.req
}

// --- cache-churn ---

// cacheChurn draws uniformly over twice as many instances as the default
// cache holds, so about half the requests miss, insert and evict.
type cacheChurn struct {
	*instanceSet
	preload []int32 // instances requested by set-up to fill the cache
	draws   []int32 // pre-drawn instance choices, cycled
	pos     int
	req     request // reused for every timed request
}

const (
	churnInstances = 2048
	churnK         = 10
	defaultCache   = 1024 // serve.Config's default CacheEntries
)

func newCacheChurn(seed int64) *cacheChurn {
	w := &cacheChurn{instanceSet: newInstanceSet(seed)}
	for n := 0; n < churnInstances; n++ {
		w.draw(n, churnK)
	}
	for _, i := range w.rng.Perm(churnInstances)[:defaultCache] {
		w.preload = append(w.preload, int32(i))
	}
	w.draws = make([]int32, drawCount)
	for i := range w.draws {
		w.draws[i] = int32(w.rng.Intn(churnInstances))
	}
	return w
}

func (w *cacheChurn) tailPct() float64 { return 0.999 }

func (w *cacheChurn) setup(c *client) error {
	w.fresh = 0
	for _, i := range w.preload {
		if _, err := c.post("/v1/solve", w.insts[i].body); err != nil {
			return err
		}
		w.fresh++
	}
	return nil
}

func (w *cacheChurn) next() *request {
	i := w.draws[w.pos%len(w.draws)]
	w.pos++
	w.req = request{path: "/v1/solve", body: w.insts[i].body, ops: 1, inst: append(w.req.inst[:0], i)}
	return &w.req
}

// certifyFast runs the certifier in the server's default mode.
func certifyFast(p *core.Problem, sol *core.Solution, tree *core.Node) {
	certify.Check(p, sol.Cost, tree, sol.C, sol.Choice, certify.ModeFast, 0)
}
