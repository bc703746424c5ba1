package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// runMainEnv, set to 1, makes the test binary run macsim's main instead
// of the tests. The tests drive the command by re-executing themselves,
// so every run exercises the code linked into the test binary, the same
// binary go test's result cache is keyed on.
const runMainEnv = "MACSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// macsim returns a command running macsim with the given arguments.
func macsim(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// checkGolden compares got with testdata/name byte for byte, or rewrites
// the file with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file (%d bytes, want %d); rerun with -update only for an intended change",
			name, len(got), len(want))
	}
}

// TestGoldenOutputs pins macsim's outputs byte for byte: the metrics
// table with every pooled surface on stdout (the stat registry, the
// airtime ledger and drift JSON, the audit JSON, the flight stage
// histograms), the fault counters of an impaired run, and the trace and
// span files of a single run in both export formats.
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"extended_stats.txt", []string{"-protocol", "extended", "-nodes", "40", "-slots", "2000", "-runs", "2",
			"-stats", "-ledger", "-", "-audit", "-", "-flightstats"}},
		{"lamm_fault_stats.txt", []string{"-protocol", "LAMM", "-nodes", "40", "-slots", "2000", "-runs", "2",
			"-per", "0.05", "-ge", "0.01:0.1:0.8", "-crash", "1500:150", "-stats"}},
	} {
		out, err := macsim(tc.args...).Output()
		if err != nil {
			t.Fatalf("macsim %v: %v", tc.args, err)
		}
		checkGolden(t, tc.golden, out)
	}
	dir := t.TempDir()
	for _, ext := range []string{".jsonl", ".json"} {
		trace := filepath.Join(dir, "bmmm_trace"+ext)
		spans := filepath.Join(dir, "bmmm_flight"+ext)
		args := []string{"-protocol", "BMMM", "-nodes", "20", "-slots", "600", "-runs", "1", "-trace", trace, "-flight", spans}
		if out, err := macsim(args...).CombinedOutput(); err != nil {
			t.Fatalf("macsim %v: %v\n%s", args, err, out)
		}
		for _, path := range []string{trace, spans} {
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Base(path), got)
		}
	}
}

// TestBadRunConfigExitsTwo runs the command with flag values no
// simulation can be built from and checks each is rejected up front:
// exit status 2 and the validation message, not a panic or a silent run.
func TestBadRunConfigExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		flag, value, field string
	}{
		{"-radius", "0", "Radius"},
		{"-nodes", "-5", "Nodes"},
		{"-rate", "2", "Rate"},
		{"-timeout", "-5", "Timeout"},
		{"-threshold", "1.5", "Threshold"},
	} {
		out, err := macsim("-protocol", "BMMM", "-runs", "1", "-slots", "10", tc.flag, tc.value).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: want exit status 2, got %v\n%s", tc.flag, tc.value, err, out)
			continue
		}
		if msg := string(out); !strings.Contains(msg, tc.field) || strings.Contains(msg, "panic") {
			t.Errorf("%s %s: want a %s validation message, got:\n%s", tc.flag, tc.value, tc.field, msg)
		}
	}
}

// TestChartHonoursFaultFlags: -chart runs through the same run
// configuration as the metrics table, so a fault flag changes the
// chart (lost receptions show up) while a repeat run does not.
func TestChartHonoursFaultFlags(t *testing.T) {
	chart := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-chart", "60"}, extra...)
		out, err := macsim(args...).CombinedOutput()
		if err != nil {
			t.Fatalf("macsim %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	clean := chart()
	if again := chart(); again != clean {
		t.Fatal("two identical -chart runs differ")
	}
	if lossy := chart("-per", "0.9"); lossy == clean {
		t.Errorf("-chart 60 -per 0.9 drew the same chart as -chart 60:\n%s", clean)
	}
}
