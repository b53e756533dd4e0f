package serve

// golden_test.go pins the serving layer's headline promise with the real
// simulator: POST /v1/sweeps for the degrade-smoke, fig5-paper,
// fig4b-paper and wl-smoke presets, and for surface-smoke with a
// request workload or fault plan, returns, in every format of the artifact table
// (plot.Artifacts), the bytes cmd/figures writes for the same spec and
// options — on the cold path AND on the cache-hit path. A workload on
// fig5-paper, which varies the pattern, is rejected by both alike.
// The expected bytes come from a sweep run here with the CLI's options
// and rendered by the same table, so a drift in the serving pipeline
// fails this test.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"ddio/internal/exp"
	"ddio/internal/fault"
	"ddio/internal/plot"
	"ddio/internal/workload"
)

func TestServedSweepsMatchFiguresArtifacts(t *testing.T) {
	// wl is the -workload argument of the two cases that pass one.
	const wl = `{"phases":[{"pattern":"uniform","requests":64,"read_fraction":1,` +
		`"record_size":8192,"arrival":"poisson","rate_per_sec":1000}]}`
	// plan is the -faults argument of the case that passes one.
	const plan = `{"disk_error_rate":0.02,"retry_limit":4,"stragglers":1,"straggler_slowdown":2}`
	presets := []struct {
		name     string
		body     string
		timeFig  bool   // a degradation or workload sweep, so timesvg exists
		shared   int    // cells an earlier preset already cached
		workload string // the -workload argument, if any
		faults   string // the -faults argument, if any
	}{
		// degrade-smoke carries its own trials/filemb overrides; the
		// request options mirror the figures CLI flag defaults.
		{"degrade-smoke", `{"preset":"degrade-smoke"}`, true, 0, "", ""},
		// fig5-paper at -trials 1 -filemb 1 keeps the paper figure's
		// full grid while staying cheap.
		{"fig5-paper", `{"preset":"fig5-paper","trials":1,"filemb":1}`, false, 0, "", ""},
		// fig4b-paper is a pattern-axis grid (Figure 4b): the daemon
		// serves a paper pattern figure like any other sweep. Its ra,
		// rn, rb and rc rows are fig5-paper's 16-CP row, so those 8
		// cells are already cached.
		{"fig4b-paper", `{"preset":"fig4b-paper","trials":1,"filemb":1}`, false, 8, "", ""},
		// wl-smoke drives the workload layer (skewed open-arrival
		// streams, swept over the wlrate axis) through the live handler.
		{"wl-smoke", `{"preset":"wl-smoke"}`, true, 0, "", ""},
		// A workload on a one-pattern spec becomes its workload
		// template: the sweep reports latency and has a time figure.
		{"surface-smoke", `{"preset":"surface-smoke","workload":` + wl + `}`, true, 0, wl, ""},
		// On a spec that varies the pattern a workload would repeat one
		// number per pattern: both sides reject it, naming the spec.
		{"fig5-paper", `{"preset":"fig5-paper","trials":1,"filemb":1,"workload":` + wl + `}`, false, 0, wl, ""},
		// A fault plan becomes the spec's fault-plan template the same
		// way: the sweep records it, times its cells and has a time
		// figure, byte for byte as with the plan in the spec itself.
		{"surface-smoke", `{"preset":"surface-smoke","faults":` + plan + `}`, true, 0, "", plan},
	}

	s := New(Config{QueueDepth: 4, Concurrency: 1})
	for _, p := range presets {
		t.Run(p.name, func(t *testing.T) {
			spec, ok := exp.LookupPreset(p.name)
			if !ok {
				t.Fatalf("preset %q missing", p.name)
			}
			// The options cmd/figures would build for
			//   figures -sweep <name> [-trials 1 -filemb 1] [-workload <wl>]
			opts := exp.Options{Trials: 5, FileBytes: 10 * exp.MiB, Seed: 42, Verify: true}
			if strings.HasSuffix(p.name, "-paper") {
				opts.Trials, opts.FileBytes = 1, exp.MiB
			}
			if p.workload != "" {
				wl, err := workload.Parse([]byte(p.workload))
				if err != nil {
					t.Fatal(err)
				}
				opts.Workload = wl
			}
			if p.faults != "" {
				pl, err := fault.ResolvePlan(p.faults)
				if err != nil {
					t.Fatal(err)
				}
				opts.Faults = pl
			}
			res, err := spec.RunFull(opts)
			var specErr *exp.SpecError
			if errors.As(err, &specErr) {
				if specErr.Spec != p.name {
					t.Fatalf("figures rejects the sweep without naming it: %v", err)
				}
				for _, a := range plot.Artifacts {
					rr := do(t, s, "POST", "/v1/sweeps?format="+a.Format, p.body)
					if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), err.Error()) {
						t.Fatalf("%s: daemon answered %d %q; figures rejects it with %q",
							a.Format, rr.Code, rr.Body.String(), err)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for _, a := range plot.Artifacts {
				data, err := a.Render(res)
				if err != nil {
					t.Fatal(err)
				}
				if data != nil {
					want[a.Format] = string(data)
				}
			}
			// <name>-time.svg exists for degradation sweeps (completion
			// time) and workload sweeps (request-latency percentiles).
			if _, ok := want["timesvg"]; ok != p.timeFig {
				t.Fatalf("time figure present: %v", ok)
			}
			if p.faults != "" {
				// The same plan as the spec's own template.
				own := *spec
				own.Faults, opts.Faults = opts.Faults, nil
				tmpl, err := own.RunFull(opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range plot.Artifacts {
					data, err := a.Render(tmpl)
					if err != nil {
						t.Fatal(err)
					}
					if string(data) != want[a.Format] {
						t.Fatalf("%s: -faults and the spec's own template give different bytes", a.Format)
					}
				}
			}

			cold := true
			for _, a := range plot.Artifacts {
				rr := do(t, s, "POST", "/v1/sweeps?format="+a.Format, p.body)
				wantBody, ok := want[a.Format]
				if !ok {
					if rr.Code != http.StatusUnprocessableEntity {
						t.Fatalf("%s: status %d for a sweep without the view", a.Format, rr.Code)
					}
					continue
				}
				if rr.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", a.Format, rr.Code, rr.Body.String())
				}
				if ct := rr.Header().Get("Content-Type"); ct != a.MIME {
					t.Fatalf("%s: content type %q, want %q", a.Format, ct, a.MIME)
				}
				if rr.Body.String() != wantBody {
					t.Fatalf("%s: served bytes differ from the figures artifact\nserved %d bytes, want %d",
						a.Format, rr.Body.Len(), len(wantBody))
				}
				hits, cells := rr.Header().Get("X-Cache-Hits"), rr.Header().Get("X-Cells")
				if want := fmt.Sprint(p.shared); cold && hits != want {
					t.Fatalf("first request reported %s cache hits, want %s", hits, want)
				}
				if !cold && hits != cells {
					t.Fatalf("warm request: %s hits of %s cells", hits, cells)
				}
				cold = false
			}

			// And the cold format repeated is still byte-identical — the
			// cache-hit path reruns the whole render pipeline, not a
			// stored response.
			rr := do(t, s, "POST", "/v1/sweeps?format=text", p.body)
			if rr.Body.String() != want["text"] {
				t.Fatal("cache-hit text differs from cold text")
			}
		})
	}

	// The entire test simulated each distinct cell exactly once.
	st := s.StatsSnapshot()
	if st.Cache.Misses < st.CellsSimulated {
		t.Fatalf("inconsistent counters: %+v", st)
	}
}

// TestServedWorkloadRun drives one inline-workload run through the real
// simulator via POST /v1/runs: the declared streams execute, verify
// clean, and report positive throughput.
func TestServedWorkloadRun(t *testing.T) {
	s := New(Config{QueueDepth: 2, Concurrency: 1})
	body := `{"method":"ddio-sort","pattern":"rb","cps":4,"iops":4,"disks":4,"filemb":1,
		"workload":{"name":"w","phases":[{"pattern":"skew","requests":32,"alpha":1.2,
		"read_fraction":0.8,"arrival":"poisson","rate_per_sec":1000}]}}`
	rr := do(t, s, "POST", "/v1/runs", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var sum RunSummary
	if err := json.Unmarshal(rr.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.MBps <= 0 || sum.VerifyErrors != 0 {
		t.Fatalf("workload run summary: %+v", sum)
	}
	// A run without the workload must occupy a different cache cell.
	plain := do(t, s, "POST", "/v1/runs", `{"method":"ddio-sort","pattern":"rb","cps":4,"iops":4,"disks":4,"filemb":1}`)
	var plainSum RunSummary
	if err := json.Unmarshal(plain.Body.Bytes(), &plainSum); err != nil {
		t.Fatal(err)
	}
	if plainSum.CellKey == sum.CellKey {
		t.Fatal("workload and plain runs share a cell key")
	}
}

// TestServedTraceHTMLMatchesViewer pins the served trace viewer: POST
// /v1/runs?trace=html returns bytes identical to what ddiosim
// -tracehtml writes for the same configuration (exp.TracedRun +
// Recorder.WriteHTML with the shared exp.TraceTitle), with the HTML
// content type.
func TestServedTraceHTMLMatchesViewer(t *testing.T) {
	s := New(Config{QueueDepth: 2, Concurrency: 1})
	body := `{"method":"ddio","pattern":"rb","cps":2,"iops":2,"disks":2,"filemb":1,"seed":11}`

	q, err := ParseRunRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := q.Config()
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := exp.TracedRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := rec.WriteHTML(&want, exp.TraceTitle(cfg)); err != nil {
		t.Fatal(err)
	}

	rr := do(t, s, "POST", "/v1/runs?trace=html", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if rr.Body.String() != want.String() {
		t.Fatalf("served viewer differs from the CLI page: served %d bytes, want %d",
			rr.Body.Len(), want.Len())
	}
	// And the page is reproducible: a second served request is
	// byte-identical (traced runs bypass the cell cache, so this
	// re-simulates from the same seed).
	again := do(t, s, "POST", "/v1/runs?trace=html", body)
	if again.Body.String() != rr.Body.String() {
		t.Fatal("served viewer is not deterministic across requests")
	}
}
