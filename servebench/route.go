package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/workload"
)

// routeWalk publishes policies during set-up and walks sessions to
// completion in the timed phase, one /v1/route step per request. Each
// session answers outcomes for a hidden object drawn by weight.
type routeWalk struct {
	pols     []routePolicy
	sessions []session // pre-drawn, cycled
	pos      int

	// the live session
	cur     *session
	cursor  string
	last    int32 // action the server asked for last; -1 before the first
	outcome bool  // outcome reported for last
	steps   int
	req     request // reused for every timed request
	buf     []byte  // step body, rebuilt per request around the server's cursor
	fresh   int64

	mirror *mirror // traced runs: the route plane rebuilt from policy's public API
}

type routePolicy struct {
	p     *core.Problem
	id    string // canonical instance hash: the policy id
	body  []byte // instio wire form, the /v1/policy body
	start []byte // {"policy": id}, the session start body
	ref   uint64 // core.SolveMemo reference cost
	sets  []core.Set
	treat []bool
}

type session struct {
	pol    int
	hidden int
}

const (
	routePolicies = 16
	routeSessions = 1 << 15
)

// routeProblem is policy number i: the five domain generators in turn, at
// K = 12, 13 and 14 in turn.
func routeProblem(seed int64, i int) *core.Problem {
	k := 12 + i%3
	switch i % 5 {
	case 0:
		return workload.MedicalDiagnosis(seed, k)
	case 1:
		return workload.FaultLocation(seed, k, 4)
	case 2:
		return workload.SystematicBiology(seed, k)
	case 3:
		return workload.LaboratoryAnalysis(seed, k)
	default:
		return workload.Logistics(seed, k, 4)
	}
}

// routeProblems draws n distinct policy instances.
func routeProblems(rng *rand.Rand, n int) []*core.Problem {
	seen := make(map[string]bool)
	var ps []*core.Problem
	for len(ps) < n {
		p := routeProblem(rng.Int63(), len(ps))
		h, err := serve.Hash(serve.Canonicalize(p))
		if err != nil {
			panic(fmt.Sprintf("hashing a generated instance: %v", err))
		}
		if !seen[h] {
			seen[h] = true
			ps = append(ps, p)
		}
	}
	return ps
}

func newRouteWalk(seed int64) *routeWalk {
	rng := rand.New(rand.NewSource(seed))
	w := &routeWalk{}
	for _, p := range routeProblems(rng, routePolicies) {
		id, _ := serve.Hash(serve.Canonicalize(p))
		ref, err := core.SolveMemo(p)
		if err != nil {
			panic(fmt.Sprintf("reference solve of a generated instance: %v", err))
		}
		start, _ := json.Marshal(serve.RouteRequest{Policy: id})
		w.pols = append(w.pols, routePolicy{p: p, id: id, body: encodeInstance(p), start: start, ref: ref})
	}
	w.sessions = make([]session, routeSessions)
	for i := range w.sessions {
		pol := rng.Intn(len(w.pols))
		w.sessions[i] = session{pol: pol, hidden: drawByWeight(rng, w.pols[pol].p.Weights)}
	}
	return w
}

func drawByWeight(rng *rand.Rand, weights []uint64) int {
	var total uint64
	for _, x := range weights {
		total += x
	}
	r := uint64(rng.Int63n(int64(total)))
	for j, x := range weights {
		if r < x {
			return j
		}
		r -= x
	}
	return len(weights) - 1
}

func (w *routeWalk) tailPct() float64 { return 0.999 }

// setup publishes every policy and checks its certified cost against the
// reference.
func (w *routeWalk) setup(c *client) error {
	w.fresh = 0
	for i := range w.pols {
		pol := &w.pols[i]
		body, err := c.post("/v1/policy", pol.body)
		if err != nil {
			return err
		}
		var resp serve.PolicyResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decoding /v1/policy response: %w", err)
		}
		if resp.Policy != pol.id || resp.Cost != pol.ref {
			return fmt.Errorf("policy %d published as %s with cost %d, want %s with cost %d", i, resp.Policy, resp.Cost, pol.id, pol.ref)
		}
		pol.sets, pol.treat = pol.sets[:0], pol.treat[:0]
		for _, a := range resp.Actions {
			pol.sets = append(pol.sets, core.SetOf(a.Objects...))
			pol.treat = append(pol.treat, a.Treatment)
		}
		if !resp.Cached {
			w.fresh++
		}
	}
	w.cur = nil
	return nil
}

func (w *routeWalk) next() *request {
	if w.cur == nil {
		w.cur = &w.sessions[w.pos%len(w.sessions)]
		w.pos++
		w.last, w.steps = -1, 0
		w.req = request{path: "/v1/route", body: w.pols[w.cur.pol].start, ops: 1}
		return &w.req
	}
	w.buf = append(w.buf[:0], `{"cursor":"`...)
	w.buf = append(w.buf, w.cursor...)
	w.buf = append(w.buf, `","outcome":`...)
	w.buf = strconv.AppendBool(w.buf, w.outcome)
	w.buf = append(w.buf, '}')
	w.req = request{path: "/v1/route", body: w.buf, ops: 1}
	return &w.req
}

// check verifies one route response. A session must end on a treatment
// that covers its hidden object, within a bounded number of steps.
func (w *routeWalk) check(r *request, code int, body []byte, t *tally) {
	s := w.cur
	if code != http.StatusOK {
		t.failed++
		w.cur = nil
		return
	}
	t.answered++
	var resp serve.RouteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.failed++
		w.cur = nil
		return
	}
	pol := &w.pols[s.pol]
	if resp.Done {
		if w.last < 0 || !pol.treat[w.last] || !pol.sets[w.last].Has(s.hidden) {
			t.failed++
		}
		w.cur = nil
		return
	}
	if resp.Action < 0 || int(resp.Action) >= len(pol.sets) || resp.Cursor == "" || w.steps > 2*len(pol.sets) {
		t.failed++
		w.cur = nil
		return
	}
	w.last, w.cursor = resp.Action, resp.Cursor
	w.outcome = pol.sets[resp.Action].Has(s.hidden)
	w.steps++
}

// route-walk answers are checked as they arrive.
func (w *routeWalk) settle(*tally) {}

func (w *routeWalk) freshSolves() int64 { return w.fresh }

// mirror is the route plane rebuilt from the policy package's public API:
// the benchmark's own keyring and store, holding artifacts compiled from
// the same certified trees. Route replays step it alongside the server.
type mirror struct {
	kr     *policy.Keyring
	store  *policy.Store
	cursor string // the mirror session's cursor, signed by kr
	hidden int
}

// compilePolicies solves, certifies, compiles and publishes each problem,
// timing certify.Certify plus policy.Compile as policy.compile when st is
// not nil.
func compilePolicies(ps []*core.Problem, st *stageSet) (*mirror, []*policy.Artifact, error) {
	kr, err := policy.NewKeyring()
	if err != nil {
		return nil, nil, err
	}
	m := &mirror{kr: kr, store: policy.NewStore(0)}
	var arts []*policy.Artifact
	for _, p := range ps {
		canon := serve.Canonicalize(p)
		id, err := serve.Hash(canon)
		if err != nil {
			return nil, nil, err
		}
		sol, err := core.SolveCheckpointedCtx(context.Background(), canon, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		tree, err := sol.Tree(canon)
		if err != nil {
			return nil, nil, err
		}
		cost := sol.Cost
		sol.Release()
		var art *policy.Artifact
		timed(st, "policy.compile", func() {
			var cert *certify.Certificate
			if cert, err = certify.Certify(canon, tree, cost); err == nil {
				art, err = policy.Compile(cert, id)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		if art, err = m.store.Publish(art); err != nil {
			return nil, nil, err
		}
		arts = append(arts, art)
	}
	return m, arts, nil
}

func (w *routeWalk) replay(r *request, body []byte, tr *tracer) {
	if w.mirror == nil {
		ps := make([]*core.Problem, len(w.pols))
		for i := range w.pols {
			ps[i] = w.pols[i].p
		}
		m, _, err := compilePolicies(ps, nil)
		if err != nil {
			return
		}
		w.mirror = m
	}
	m := w.mirror
	var resp serve.RouteResponse
	if json.Unmarshal(body, &resp) != nil {
		return
	}
	var req serve.RouteRequest
	tr.stage("serve.decode", func() { _ = json.Unmarshal(r.body, &req) })
	if req.Policy != "" {
		m.hidden = w.sessions[(w.pos-1)%len(w.sessions)].hidden
		var art *policy.Artifact
		var ok bool
		tr.stage("policy.get", func() { art, ok = m.store.Get(req.Policy, 0) })
		if ok {
			tr.stage("policy.sign", func() {
				m.cursor = m.kr.Sign(policy.Cursor{Artifact: art.Key(), Node: art.Root, Session: resp.Session})
			})
		}
	} else if m.cursor != "" {
		replayStep(tr, m)
	}
	tr.stage("serve.encode", func() { tr.encode(&resp) })
}

// replayStep verifies the mirror cursor, looks its artifact up, steps it
// with the hidden object's outcome and signs the next cursor.
func replayStep(tr *tracer, m *mirror) {
	var c policy.Cursor
	var err error
	tr.stage("policy.verify", func() { c, err = m.kr.Verify(m.cursor) })
	m.cursor = ""
	if err != nil {
		return
	}
	var art *policy.Artifact
	var ok bool
	tr.stage("policy.lookup", func() { art, ok = m.store.ByKey(c.Artifact) })
	if !ok {
		return
	}
	act, _ := art.ActionAt(c.Node)
	outcome := act.Set.Has(m.hidden)
	var next int32
	tr.stage("policy.step", func() {
		if next, ok = art.Step(c.Node, outcome); ok && next >= 0 {
			_, _ = art.ActionAt(next)
		}
	})
	if !ok || next < 0 {
		return
	}
	tr.stage("policy.sign", func() {
		m.cursor = m.kr.Sign(policy.Cursor{Artifact: c.Artifact, Node: next, Session: c.Session, Step: c.Step + 1})
	})
}
