package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// lastResult parses the result line that ends a run's output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func tinyRun(t *testing.T, workload, trace string, wrap func(http.Handler) http.Handler) (int, string) {
	t.Helper()
	var out, errs bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace,
		"--spans", filepath.Join(t.TempDir(), "spans.jsonl")}, &out, &errs, wrap)
	if errs.Len() > 0 {
		t.Logf("stderr: %s", errs.String())
	}
	return code, out.String()
}

// TestEveryWorkloadTiny runs every workload briefly, untraced and traced,
// and checks that every answer verifies and that exactly the metrics
// BENCHMARK.json declares print, with their units.
func TestEveryWorkloadTiny(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadList {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				code, out := tinyRun(t, w, trace, nil)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, out)
				}
				res := lastResult(t, out)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s printed but not declared in BENCHMARK.json", name)
					}
				}
				if trace == "0" && res.Metrics["success_rate"].Value != 1 {
					t.Errorf("success_rate = %v, want 1", res.Metrics["success_rate"].Value)
				}
			})
		}
	}
}

// corruptCachedCost wraps a handler so that the n-th cached /v1/solve answer
// reports a cost one higher than the server computed.
func corruptCachedCost(n int) func(http.Handler) http.Handler {
	seen := 0
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			var resp map[string]any
			if r.URL.Path == "/v1/solve" && json.Unmarshal(body, &resp) == nil && resp["cached"] == true {
				if seen++; seen == n {
					resp["cost"] = resp["cost"].(float64) + 1
					body, _ = json.Marshal(resp)
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		})
	}
}

// TestCorruptedAnswerFailsRun proves the oracle bites: one wrong cost in a
// hot-solve run lowers success_rate below 1 and fails the command.
func TestCorruptedAnswerFailsRun(t *testing.T) {
	code, out := tinyRun(t, "hot-solve", "0", corruptCachedCost(5))
	if code == 0 {
		t.Fatalf("a corrupted answer passed; output:\n%s", out)
	}
	res := lastResult(t, out)
	if res.Correct || res.Failed != 1 {
		t.Errorf("correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
	if sr := res.Metrics["success_rate"].Value; sr >= 1 {
		t.Errorf("success_rate = %v, want < 1", sr)
	}
}
