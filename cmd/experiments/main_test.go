package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, set to 1, makes the test binary run the command's main
// instead of the tests, so each test drives the code linked into this
// binary.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownExperimentExitsTwo: a name outside the catalogue runs
// nothing, exits 2 and lists the known names.
func TestUnknownExperimentExitsTwo(t *testing.T) {
	for _, spec := range []string{"nosuch", "fig6,gpsErr2"} {
		cmd := exec.Command(os.Args[0], "-exp", spec, "-runs", "1", "-slots", "10", "-out", "")
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-exp %s: want exit status 2, got %v\n%s", spec, err, out)
			continue
		}
		if msg := string(out); !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, "gpserr") {
			t.Errorf("-exp %s: want the unknown name and the known ones, got:\n%s", spec, msg)
		}
	}
}
