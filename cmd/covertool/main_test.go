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

// runMainEnv, set to 1, makes the test binary run covertool's main
// instead of the tests. The tests drive the command by re-executing
// themselves, so every run exercises the geometry linked into the test
// binary, the same binary go test's result cache is keyed on.
const runMainEnv = "COVERTOOL_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// covertool returns a command running covertool with the given stdin
// and arguments.
func covertool(stdin string, args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stdin = strings.NewReader(stdin)
	return cmd
}

// TestGoldenOutputs pins covertool's report byte for byte: MCS(S), the
// greedy cover set, the lower bound, each node's coverage gaps and the
// map. The stdin case places two stations 1e-10 apart, so their cover
// angles nearly coincide and the greedy runs on float sweeps.
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		golden, stdin string
		args          []string
	}{
		{"random10_seed3.txt", "", []string{"-random", "10", "-seed", "3"}},
		{"stdin_near.txt", "0.5 0.5\n0.6 0.5\n0.6000000001 0.5\n0.5 0.62\n0.5 0.62\n0.45 0.4\n", nil},
	} {
		got, err := covertool(tc.stdin, tc.args...).Output()
		if err != nil {
			t.Fatalf("covertool %v: %v", tc.args, err)
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden file:\n%s\nwant:\n%s", tc.golden, got, want)
		}
	}
}

// TestExtremeCoordinates checks that finite coordinates whose extent
// overflows a float64 still render a map, one mark per station.
func TestExtremeCoordinates(t *testing.T) {
	out, err := covertool("1e308 0.5\n-1e308 0.5\n1.7e308 -1.7e308\n").Output()
	if err != nil {
		t.Fatalf("covertool: %v", err)
	}
	_, grid, _ := strings.Cut(string(out), "covered node):\n")
	if marks := strings.Count(grid, "*") + strings.Count(grid, "o"); marks != 3 {
		t.Errorf("map has %d station marks, want 3:\n%s", marks, out)
	}
}

// TestRejectsBadInput checks that non-finite coordinates and a radius
// that is not positive and finite end the command with a message and
// exit status 2, as an empty point list does, rather than a panic.
func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		stdin string
		args  []string
		msg   string
	}{
		{"NaN 0.5\n0.5 0.5\n", nil, "coordinates must be finite"},
		{"0.5 0.5\n0.5 +Inf\n", nil, "coordinates must be finite"},
		{"", []string{"-random", "3", "-spread", "Inf"}, "coordinates must be finite"},
		{"", []string{"-random", "3", "-radius", "-1"}, "must be positive and finite"},
		{"", []string{"-random", "3", "-radius", "0"}, "must be positive and finite"},
		{"", []string{"-random", "3", "-radius", "NaN"}, "must be positive and finite"},
		{"", nil, "no points"},
	} {
		cmd := covertool(tc.stdin, tc.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("stdin %q, args %v: err %v, want exit status 2", tc.stdin, tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.msg) || strings.Contains(stderr.String(), "panic") {
			t.Errorf("stdin %q, args %v: stderr %q, want a message containing %q", tc.stdin, tc.args, stderr.String(), tc.msg)
		}
	}
}
