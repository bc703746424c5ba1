package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"relmac/internal/lint"
)

// runMainEnv, set to 1, makes the test binary run relmaclint's main
// instead of the tests. The tests drive the command by re-executing
// themselves, so every run exercises the code linked into the test
// binary, the same binary go test's result cache is keyed on.
const runMainEnv = "RELMACLINT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// relmaclint returns a command running relmaclint with the given
// arguments.
func relmaclint(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// TestUnknownCheckExitsTwo pins the command's contract at the process
// boundary: an unknown -checks name exits 2 and lists the valid checks
// instead of reporting a clean run of nothing, and -list prints exactly
// the registered checks.
func TestUnknownCheckExitsTwo(t *testing.T) {
	for _, checks := range []string{"nosuchcheck", "determinism,hotalloc"} {
		out, err := relmaclint("-checks", checks, "./internal/geom").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-checks %s: want exit status 2, got %v\n%s", checks, err, out)
			continue
		}
		if msg := string(out); !strings.Contains(msg, "unknown check") || !strings.Contains(msg, strings.Join(lint.CheckNames(), ",")) {
			t.Errorf("-checks %s: want an unknown-check message listing the valid checks, got:\n%s", checks, msg)
		}
	}

	out, err := relmaclint("-list").Output()
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
