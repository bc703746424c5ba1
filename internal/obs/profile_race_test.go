package obs_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/obs"
	"relmac/internal/prof"
)

// TestProfileEndpointConcurrentWithRun hammers /metrics and /snapshot
// while a live run feeds the registered phase timer. This is the
// concurrency contract of PhaseTimer.Report and the profile export
// path, meaningful under `go test -race`: the HTTP goroutines read the
// atomics mid-run while the engine goroutine writes them.
func TestProfileEndpointConcurrentWithRun(t *testing.T) {
	reg := obs.NewRegistry()
	pt := prof.New()
	msrv := obs.NewMetricsServer(reg)
	msrv.AddProfile("BMMM", pt.Report)
	handler := msrv.Handler()

	cfg := experiments.Defaults(experiments.BMMM, 11)
	cfg.Nodes, cfg.Slots = 400, 8000
	cfg.Radius = 0.08
	cfg.Profiler = pt

	done := make(chan error, 1)
	go func() {
		_, err := experiments.Run(cfg)
		done <- err
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, path := range []string{"/metrics", "/snapshot"} {
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if rec.Code != 200 {
						t.Errorf("%s returned %d", path, rec.Code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// After the run: the text exposition carries the phase and wall
	// series, and the snapshot's profile section decodes back into a
	// conserved report of the one run.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`relmac_phase_ns{profile="BMMM",phase="resolve"}`,
		`relmac_profile_wall_ns{profile="BMMM"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	var snap struct {
		Profile map[string]prof.Report `json:"profile"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	r, ok := snap.Profile["BMMM"]
	if !ok {
		t.Fatal("snapshot missing the profile section")
	}
	if !r.Conserved() || r.WallNs <= 0 {
		t.Fatalf("profile snapshot not conserved: %+v", r)
	}
	if r.Runs != 1 || r.PhaseNs("resolve") <= 0 {
		t.Fatalf("want one run with resolve time charged, got %+v", r)
	}
}
