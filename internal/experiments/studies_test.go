package experiments

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"relmac/internal/report"
)

// runStudy runs the catalogue study name and returns its tables.
func runStudy(t *testing.T, name string, o Options) []*report.Table {
	t.Helper()
	for _, s := range Studies {
		if s.Name != name {
			continue
		}
		outs, err := s.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tbs := make([]*report.Table, len(outs))
		for i := range outs {
			tbs[i] = outs[i].Table
		}
		return tbs
	}
	t.Fatalf("no study %q in the catalogue", name)
	return nil
}

// TestSelect: every study name selects all of its files, every file's
// base name that file alone, "all" the paper's evaluation, and any
// other name is an error that lists the known ones.
func TestSelect(t *testing.T) {
	files := func(s string) []string {
		t.Helper()
		want, err := Select(s)
		if err != nil {
			t.Fatalf("Select(%q): %v", s, err)
		}
		var out []string
		for f := range want {
			out = append(out, f)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(fs ...string) []string {
		out := append([]string(nil), fs...)
		sort.Strings(out)
		return out
	}
	for _, s := range Studies {
		if got := files(s.Name); !reflect.DeepEqual(got, sorted(s.Files...)) {
			t.Errorf("Select(%q) = %v, want %v", s.Name, got, sorted(s.Files...))
		}
		for _, f := range s.Files {
			if got := files(baseName(f)); !reflect.DeepEqual(got, []string{f}) {
				t.Errorf("Select(%q) = %v, want [%s]", baseName(f), got, f)
			}
		}
	}
	paper := sorted("table1.csv", "fig2.txt", "fig5.csv", "fig6a.csv", "fig9a.csv", "fig10a.csv",
		"fig6b.csv", "fig9b.csv", "fig10b.csv", "fig7.csv", "fig8.csv")
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"all", paper},
		{" ALL ", paper},
		{"all,fig9a", paper},
		{"all,mobility", sorted(append(paper, "mobility.csv")...)},
		{" Fig9A , GPSErr", sorted("fig9a.csv", "gpserr.csv")},
		{"fig6a,,density,", sorted("fig6a.csv", "fig9a.csv", "fig10a.csv")},
		{"fault_burst", []string{"fault_burst.csv"}},
		{"fault_delivery", []string{"fault_delivery.csv"}},
	} {
		if got := files(tc.spec); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Select(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
	for _, spec := range []string{"nosuch", "fig6,gpsErr2", "fig6a,fig11", "fig2.txt", "", " , "} {
		want, err := Select(spec)
		if err == nil {
			t.Errorf("Select(%q) = %v, want an error", spec, want)
			continue
		}
		if !strings.Contains(err.Error(), Known()) {
			t.Errorf("Select(%q): error %q does not list the known names", spec, err)
		}
	}
}

// TestKnownListsEveryName: every name Known lists selects something.
func TestKnownListsEveryName(t *testing.T) {
	names := strings.FieldsFunc(Known(), func(r rune) bool { return strings.ContainsRune(" ,()", r) })
	if len(names) < len(Studies)+1 {
		t.Fatalf("Known() = %q lists %d names", Known(), len(names))
	}
	for _, name := range names {
		if _, err := Select(name); err != nil {
			t.Errorf("Known lists %q, which Select rejects: %v", name, err)
		}
	}
}
