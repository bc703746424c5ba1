package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildMacsim builds the command into a test temp directory.
func buildMacsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "macsim")
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestBadRunConfigExitsTwo runs the built command with flag values no
// simulation can be built from and checks each is rejected up front:
// exit status 2 and the validation message, not a panic or a silent run.
func TestBadRunConfigExitsTwo(t *testing.T) {
	bin := buildMacsim(t)
	for _, tc := range []struct {
		flag, value, field string
	}{
		{"-radius", "0", "Radius"},
		{"-nodes", "-5", "Nodes"},
		{"-rate", "2", "Rate"},
	} {
		out, err := exec.Command(bin, "-protocol", "BMMM", "-runs", "1", "-slots", "10", tc.flag, tc.value).CombinedOutput()
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
	bin := buildMacsim(t)
	chart := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-chart", "60"}, extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
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
