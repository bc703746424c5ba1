package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"

	"relmac/internal/prof"
)

// MetricsServer exposes a Registry (plus optional gauges, phase
// profiles and extra JSON sections) over HTTP in two shapes:
//
//	/metrics   Prometheus text exposition format (counters, histograms
//	           with cumulative _bucket/_sum/_count families, gauges)
//	/snapshot  one JSON document: registry snapshot, gauges and every
//	           registered extra section
//	/          plain-text index of the above
//
// The server only builds an http.Handler — it never listens or spawns
// goroutines itself (internal/obs runs on the engine's serial path, so
// the relmaclint simsafe check bans both here). Callers own the
// net/http server: `go http.Serve(ln, srv.Handler())` from a cmd.
//
// Registered gauge and extra callbacks run on HTTP goroutines while the
// simulation mutates its state, so they must be safe for concurrent use
// (read atomics, take their own locks, or return precomputed values).
// Registry counters/histograms, Ledger snapshots and the Stats of a
// Tracer, Flight or Auditor are already internally synchronized.
type MetricsServer struct {
	reg *Registry

	mu       sync.Mutex
	gauges   map[string]func() float64
	extras   map[string]func() any
	profiles map[string]func() prof.Report
}

// NewMetricsServer builds a server over the given registry.
func NewMetricsServer(reg *Registry) *MetricsServer {
	return &MetricsServer{
		reg:      reg,
		gauges:   make(map[string]func() float64),
		extras:   make(map[string]func() any),
		profiles: make(map[string]func() prof.Report),
	}
}

// Gauge registers a live value exported as a Prometheus gauge (and under
// "gauges" in the JSON snapshot). fn must be safe for concurrent use.
func (s *MetricsServer) Gauge(name string, fn func() float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gauges[name] = fn
}

// Extra registers an arbitrary JSON-marshalable payload included in the
// snapshot under the given key. fn must be safe for concurrent use.
func (s *MetricsServer) Extra(name string, fn func() any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extras[name] = fn
}

// Handler returns the HTTP handler serving /, /metrics and /snapshot.
func (s *MetricsServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "relmac live metrics")
		fmt.Fprintln(w, "  /metrics   Prometheus text format")
		fmt.Fprintln(w, "  /snapshot  JSON snapshot (registry, gauges, extra sections)")
	})
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/snapshot", s.serveSnapshot)
	return mux
}

// PromName sanitizes a registry instrument name into a legal Prometheus
// metric name: lowercased, every non-alphanumeric run collapsed to one
// underscore, prefixed "relmac_". "BMMM.airtime.idle" becomes
// "relmac_bmmm_airtime_idle".
func PromName(name string) string {
	var b strings.Builder
	b.WriteString("relmac_")
	prevUnderscore := false
	for _, r := range strings.ToLower(name) {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
		if !ok {
			r = '_'
		}
		if r == '_' {
			if prevUnderscore {
				continue
			}
			prevUnderscore = true
		} else {
			prevUnderscore = false
		}
		b.WriteRune(r)
	}
	return strings.TrimRight(b.String(), "_")
}

// promFloat renders a sample value; Prometheus spells non-finite values
// +Inf/-Inf/NaN.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return fmt.Sprintf("%g", v)
	}
}

func (s *MetricsServer) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counters, hists := s.reg.Names()
	for _, name := range counters {
		pn := PromName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n", pn)
		fmt.Fprintf(w, "%s %d\n", pn, s.reg.Counter(name).Value())
	}
	for _, name := range hists {
		h := s.reg.Histogram(name)
		bounds, counts := h.Buckets()
		pn := PromName(name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		var cum int64
		for i, bound := range bounds {
			cum += counts[i]
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(bound), cum)
		}
		cum += counts[len(counts)-1]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
		fmt.Fprintf(w, "%s_sum %s\n", pn, promFloat(h.Mean()*float64(h.Count())))
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count())
	}
	names, gauges := evaluate(&s.mu, s.gauges)
	for _, name := range names {
		pn := PromName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(w, "%s %s\n", pn, promFloat(gauges[name]))
	}
	s.writeProfileMetrics(w)
}

func (s *MetricsServer) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"registry": s.reg.Snapshot()}
	if _, gauges := evaluate(&s.mu, s.gauges); len(gauges) > 0 {
		out["gauges"] = gauges
	}
	names, extras := evaluate(&s.mu, s.extras)
	for _, name := range names {
		out[name] = extras[name]
	}
	if _, profiles := evaluate(&s.mu, s.profiles); len(profiles) > 0 {
		out["profile"] = profiles
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// evaluate calls every registered callback of fns: the callbacks are
// copied under mu and run outside it, in name order, so any side effects
// are deterministic run-to-run. It returns the sorted names and each
// callback's value.
func evaluate[T any](mu *sync.Mutex, fns map[string]func() T) ([]string, map[string]T) {
	mu.Lock()
	names := make([]string, 0, len(fns))
	for name := range fns {
		names = append(names, name)
	}
	sort.Strings(names)
	held := make([]func() T, len(names))
	for i, name := range names {
		held[i] = fns[name]
	}
	mu.Unlock()
	vals := make(map[string]T, len(names))
	for i, name := range names {
		vals[name] = held[i]()
	}
	return names, vals
}
