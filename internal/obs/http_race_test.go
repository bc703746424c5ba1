package obs_test

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/obs"
)

// TestMetricsServerConcurrentWithRun hammers the /metrics and /snapshot
// handlers from several goroutines while a live simulation feeds the
// registry, a gauge and an extra section they export — the concurrency
// contract of MetricsServer, meaningful under `go test -race`.
// (Goroutines are banned in internal/obs itself by the simsafe check;
// tests are exactly the caller side that owns them.) The Watch-attached
// sections are tested with experiments.Watch.
func TestMetricsServerConcurrentWithRun(t *testing.T) {
	reg := obs.NewRegistry()
	fl := obs.NewFlight(reg, "BMMM", 0)

	msrv := obs.NewMetricsServer(reg)
	msrv.Gauge("test.gauge", func() float64 { return float64(fl.Stats().Tracked) })
	msrv.Extra("flight", func() any { return fl.Stats() })
	handler := msrv.Handler()

	cfg := experiments.Defaults(experiments.BMMM, 11)
	cfg.Nodes, cfg.Slots = 60, 5000
	cfg.Observers = append(cfg.Observers, fl)

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

	// One post-run snapshot must decode and carry every registered section.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"registry", "gauges", "flight"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot missing %q section", key)
		}
	}
	if fl.Stats().Tracked == 0 {
		t.Error("flight recorder tracked no messages")
	}
}
