package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"relmac/internal/lint"
)

// TestUnknownCheckExitsTwo builds the command and pins its contract at
// the process boundary: an unknown -checks name exits 2 and lists the
// valid checks instead of reporting a clean run of nothing, and -list
// prints exactly the registered checks.
func TestUnknownCheckExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "relmaclint")
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, checks := range []string{"nosuchcheck", "determinism,hotalloc"} {
		out, err := exec.Command(bin, "-checks", checks, "./internal/geom").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-checks %s: want exit status 2, got %v\n%s", checks, err, out)
			continue
		}
		if msg := string(out); !strings.Contains(msg, "unknown check") || !strings.Contains(msg, strings.Join(lint.CheckNames(), ",")) {
			t.Errorf("-checks %s: want an unknown-check message listing the valid checks, got:\n%s", checks, msg)
		}
	}

	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	want := "determinism seedflow frameswitch simsafe docpresent hookpure maporder"
	if got := strings.Join(listed, " "); got != want {
		t.Errorf("-list checks = %q, want %q", got, want)
	}
}
