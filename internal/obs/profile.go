package obs

// Runtime-profile export: the MetricsServer surfaces prof.Report
// snapshots as relmac_phase_* / relmac_profile_* Prometheus series and
// as the "profile" section of /snapshot.

import (
	"fmt"
	"io"

	"relmac/internal/prof"
)

// AddProfile registers a live profile callback exported under the given
// name: /metrics gains relmac_phase_ns{profile,phase} gauge series plus
// the relmac_profile_wall_ns summary, and /snapshot gains a "profile"
// section keyed by name. fn runs on HTTP goroutines while the simulation
// is live, so it must be safe for concurrent use — prof.PhaseTimer.Report
// is, by design.
func (s *MetricsServer) AddProfile(name string, fn func() prof.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profiles[name] = fn
}

// writeProfileMetrics renders every registered profile in Prometheus
// text format, names sorted for stable output.
func (s *MetricsServer) writeProfileMetrics(w io.Writer) {
	names, reports := evaluate(&s.mu, s.profiles)
	if len(names) == 0 {
		return
	}
	fmt.Fprintln(w, "# TYPE relmac_phase_ns gauge")
	fmt.Fprintln(w, "# TYPE relmac_profile_wall_ns gauge")
	for _, name := range names {
		r := reports[name]
		for _, p := range r.Phases {
			fmt.Fprintf(w, "relmac_phase_ns{profile=%q,phase=%q} %d\n", name, p.Phase, p.Ns)
		}
		fmt.Fprintf(w, "relmac_profile_wall_ns{profile=%q} %d\n", name, r.WallNs)
	}
}
