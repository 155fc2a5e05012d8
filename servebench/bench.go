package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// mix is one workload's traffic. Its constructor generates every input from
// the seed; nothing it does after that draws randomness.
type mix interface {
	// tailPct is the fixed percentile tail_ms reports for this workload.
	tailPct() float64
	// setup readies a fresh server through its handler: warm-up solves and
	// cache or policy pre-loading. It is what setup_s times.
	setup(c *client) error
	// next returns the closed loop's next request, or nil when the
	// pre-generated inputs are used up.
	next() *request
	// check verifies one response and advances any client-side state.
	check(r *request, code int, body []byte, t *tally)
	// settle runs the reference checks deferred past the timed phase.
	settle(t *tally)
	// replay re-runs the request's stages through the layers' public
	// functions, each as a child span of the request's handler span.
	replay(r *request, body []byte, tr *tracer)
	// freshSolves counts answers the client saw solved rather than served
	// from cache, set-up included.
	freshSolves() int64
}

// request is one HTTP call of the closed loop.
type request struct {
	path string
	body []byte
	ops  int     // operations answered: 1, or the batch size
	inst []int32 // instances answered, for solve requests
}

// tally counts operations of the timed phase.
type tally struct {
	attempted int64 // operations sent
	answered  int64 // operations in a 200 response
	failed    int64 // operations that were not answered or not verified correct
}

// client calls the handler in-process, one request at a time.
type client struct{ h http.Handler }

// do sends one POST (or GET when body is nil) and returns the status, the
// response body and the handler call's start and end.
func (c *client) do(path string, body []byte) (int, []byte, time.Time, time.Time) {
	method := http.MethodPost
	var rd io.Reader = http.NoBody
	if body == nil {
		method = http.MethodGet
	} else {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	c.h.ServeHTTP(rec, req)
	t1 := time.Now()
	return rec.Code, rec.Body.Bytes(), t0, t1
}

// post sends one set-up request and demands a 200.
func (c *client) post(path string, body []byte) ([]byte, error) {
	code, resp, _, _ := c.do(path, body)
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, code, bytes.TrimSpace(resp))
	}
	return resp, nil
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	lat     []time.Duration
	wall    time.Duration // closed-loop time, calibration excluded
	cpu     time.Duration // process user+sys CPU, calibration excluded
	mallocs uint64
	bytes   uint64
	hits    float64 // cache hits and misses, from /v1/stats
	misses  float64
	tally   tally
	exhaust bool // the pre-generated inputs ran out before the clock did
	windows []window
}

// window is a stretch of the timed phase between two calibration samples.
type window struct {
	wall, cpu   time.Duration
	first, last int // its requests are lat[first:last]
	cal         int // the calibration sample taken just before it
}

// loop runs the closed loop for dur. After every calEvery of it, between
// requests, it pauses to sample the calibration kernel. With tr set,
// every request's handler call is a span and its stages are replayed
// under it.
func loop(w mix, c *client, cal *calibrator, dur time.Duration, tr *tracer) (phase, error) {
	var ph phase
	ph.lat = make([]time.Duration, 0, 1<<16)
	stats0, err := serverStats(c)
	if err != nil {
		return ph, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	win := window{cal: cal.sample()}
	winStart, winCPU := time.Now(), cpuTime()
	closeWindow := func() {
		win.wall, win.cpu, win.last = time.Since(winStart), cpuTime()-winCPU, len(ph.lat)
		ph.wall += win.wall
		ph.cpu += win.cpu
		ph.windows = append(ph.windows, win)
		win = window{cal: cal.sample(), first: len(ph.lat)}
		winStart, winCPU = time.Now(), cpuTime()
	}
	for ph.wall+time.Since(winStart) < dur {
		r := w.next()
		if r == nil {
			ph.exhaust = true
			break
		}
		code, body, t0, t1 := c.do(r.path, r.body)
		ph.lat = append(ph.lat, t1.Sub(t0))
		ph.tally.attempted += int64(r.ops)
		w.check(r, code, body, &ph.tally)
		if tr != nil {
			tr.request(t0, t1)
			if code == http.StatusOK {
				w.replay(r, body, tr)
			}
		}
		if time.Since(winStart) >= calEvery {
			closeWindow()
		}
	}
	closeWindow()
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	stats1, err := serverStats(c)
	ph.hits = stats1["cache_hits"] - stats0["cache_hits"]
	ph.misses = stats1["cache_misses"] - stats0["cache_misses"]
	return ph, err
}

// newServer builds the server under test: the default Config, with the
// request log kept but written to io.Discard.
func newServer() *serve.Server {
	return serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
}

// measure runs set-up, the timed phase (two halves when tracing), and the
// deferred checks, and assembles the result.
func measure(w mix, o options, out io.Writer, wrap func(http.Handler) http.Handler) (*result, error) {
	reps := setupReps
	if o.trace {
		reps = 1 // set-up is not reported by a traced run
	}
	var srv *serve.Server
	var c *client
	cal := newCalibrator()
	var setups, setupsAtNominal []float64
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.Close()
			srv = nil
		}
		runtime.GC()
		before := cal.sample()
		t0 := time.Now()
		srv = newServer()
		h := srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		c = &client{h: h}
		if err := w.setup(c); err != nil {
			srv.Close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		cal.sample()
		setups = append(setups, d.Seconds())
		setupsAtNominal = append(setupsAtNominal, d.Seconds()*cal.factor(before))
	}
	defer srv.Close()
	runtime.GC()

	dur := time.Duration(o.seconds * float64(time.Second))
	var untraced, traced phase
	var tr *tracer
	var err error
	if o.trace {
		// The first half is untraced: it gives the baseline p50 for the
		// tracing overhead and the allocation counts free of replay work.
		if untraced, err = loop(w, c, cal, dur/2, nil); err != nil {
			return nil, err
		}
		tr = newTracer(spanKeepRequests)
		traced, err = loop(w, c, cal, dur/2, tr)
	} else {
		untraced, err = loop(w, c, cal, dur, nil)
	}
	if err != nil {
		return nil, err
	}
	peakMB := vmHWM()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	liveMB := float64(mem.HeapAlloc) / (1 << 20)

	t := untraced.tally
	t.attempted += traced.tally.attempted
	t.answered += traced.tally.answered
	t.failed += traced.tally.failed
	w.settle(&t)
	stats, err := serverStats(c)
	if err != nil {
		return nil, err
	}
	statsOK := true
	for _, k := range []string{"timeouts", "failures", "reject_busy"} {
		if stats[k] != 0 {
			statsOK = false
			fmt.Fprintf(out, "FAIL: /v1/stats %s = %v, want 0\n", k, stats[k])
		}
	}
	if t.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %v", dur)
	}
	res := &result{Correct: statsOK && t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if untraced.exhaust || traced.exhaust {
		fmt.Fprintf(out, "note: pre-generated inputs ran out before --seconds; the phase ended early\n")
	}

	pct := w.tailPct()
	p50 := quantile(untraced.lat, 0.5)
	tail, beyond := quantile(untraced.lat, pct), tailBeyond(len(untraced.lat), pct)
	fmt.Fprintf(out, "%s seed=%d clients=1 closed-loop requests=%d ops=%d wall=%.3fs\n",
		o.workload, o.seed, len(untraced.lat), untraced.tally.attempted, untraced.wall.Seconds())
	fmt.Fprintf(out, "tail_ms = p%s of %d request latencies (%d beyond)\n", pctLabel(pct), len(untraced.lat), beyond)
	if beyond < 10 {
		fmt.Fprintf(out, "note: fewer than 10 samples beyond p%s; run longer for a trustworthy tail\n", pctLabel(pct))
	}
	if !o.trace {
		ops := math.Max(float64(untraced.tally.answered), 1)
		lat, wall, cpu := atNominal(untraced, cal)
		raw := map[string]metric{
			"setup_s":       {median(setups), "s"},
			"ops_per_s":     {ops / untraced.wall.Seconds(), "1/s"},
			"p50_ms":        {ms(p50), "ms"},
			"tail_ms":       {ms(tail), "ms"},
			"cpu_us_per_op": {float64(untraced.cpu.Nanoseconds()) / 1e3 / ops, "us"},
		}
		fmt.Fprintf(out, "raw timings (%d calibration samples, median %v, nominal %v):\n", len(cal.samples), quantile(cal.samples, 0.5), calNominal)
		printMetrics(out, raw)
		res.Metrics["setup_s"] = metric{median(setupsAtNominal), "s"}
		res.Metrics["ops_per_s"] = metric{ops / wall.Seconds(), "1/s"}
		res.Metrics["p50_ms"] = metric{ms(quantile(lat, 0.5)), "ms"}
		res.Metrics["tail_ms"] = metric{ms(quantile(lat, pct)), "ms"}
		res.Metrics["cpu_us_per_op"] = metric{float64(cpu.Nanoseconds()) / 1e3 / ops, "us"}
		res.Metrics["peak_rss_mb"] = metric{peakMB, "MB"}
		res.Metrics["success_rate"] = metric{float64(t.attempted-t.failed) / float64(t.attempted), "ratio"}
		fmt.Fprintln(out, "reported metrics (timings at the nominal machine speed):")
		printMetrics(out, res.Metrics)
		return res, nil
	}

	ops := float64(max(untraced.tally.attempted, 1))
	lookups := untraced.hits + untraced.misses
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = untraced.hits / lookups
	}
	counts := map[string]metric{
		"serve.allocs_per_op":     {float64(untraced.mallocs) / ops, "count"},
		"serve.bytes_per_op":      {float64(untraced.bytes) / ops, "B"},
		"serve.cache_hit_ratio":   {hitRatio, "ratio"},
		"serve.evictions":         {float64(w.freshSolves() - int64(srv.CacheLen())), "count"},
		"serve.live_heap_mb":      {liveMB, "MB"},
		"serve.trace_overhead_ms": {ms(quantile(traced.lat, 0.5)) - ms(p50), "ms"},
	}
	pr := runProbe(o.seed, tr)
	res.Metrics = layerMetrics(tr, pr, counts, out)
	tr.printTable(out, o.workload, ms(quantile(traced.lat, 0.5)), ms(p50))
	printMetrics(out, res.Metrics)
	if err := tr.dump(o.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d spans of the first %d traced requests written to %s\n", len(tr.spans), min(tr.reqs, spanKeepRequests), o.spans)
	return res, nil
}

// atNominal restates a phase at the nominal machine speed: each window's
// request latencies, wall time and CPU time scaled by its calibration
// factor.
func atNominal(ph phase, cal *calibrator) (lat []time.Duration, wall, cpu time.Duration) {
	lat = make([]time.Duration, 0, len(ph.lat))
	for _, w := range ph.windows {
		f := cal.factor(w.cal)
		for _, d := range ph.lat[w.first:w.last] {
			lat = append(lat, time.Duration(float64(d)*f))
		}
		wall += time.Duration(float64(w.wall) * f)
		cpu += time.Duration(float64(w.cpu) * f)
	}
	return lat, wall, cpu
}

// serverStats reads /v1/stats through the handler.
func serverStats(c *client) (map[string]float64, error) {
	code, body, _, _ := c.do("/v1/stats", nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d", code)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	out := make(map[string]float64)
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// quantile returns the nearest-rank q-quantile of d.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rankIndex(len(s), q)]
}

func rankIndex(n int, q float64) int {
	return min(n-1, max(0, int(math.Ceil(q*float64(n)))-1))
}

// tailBeyond is the number of samples above the q-quantile of n samples.
func tailBeyond(n int, q float64) int { return n - 1 - rankIndex(n, q) }

func pctLabel(q float64) string { return strconv.FormatFloat(q*100, 'f', -1, 64) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vmHWM is the process's peak resident set size in MB, from /proc.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
