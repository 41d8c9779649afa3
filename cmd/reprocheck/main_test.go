package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildReprocheck(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "reprocheck")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build reprocheck: %v\n%s", err, out)
	}
	return bin
}

func runCheck(t *testing.T, bin string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	err := cmd.Run()
	exit = 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run %s %v: %v", bin, args, err)
	}
	return out.String(), errBuf.String(), exit
}

// TestReprocheckFlagValidation: out-of-range values, unreadable inputs
// and undefined flags exit 2 with an error naming the problem — same
// contract as rtsim, pinned per binary because each owns its flag
// parsing. The engine has one event queue and no modes, so invocations
// that set the retired -queue/-engine/-shards knobs must be refused, not
// ignored.
func TestReprocheckFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration (builds binary)")
	}
	bin := buildReprocheck(t)
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown_queue", []string{"-queue", "wheel"}, "flag provided but not defined: -queue"},
		{"unknown_engine", []string{"-engine", "turbo"}, "flag provided but not defined: -engine"},
		{"zero_shards", []string{"-engine", "sharded", "-shards", "0"}, "flag provided but not defined: -engine"},
		{"negative_shards", []string{"-shards", "-4"}, "flag provided but not defined: -shards"},
		{"queue_vs_sharded", []string{"-engine", "sharded", "-queue", "ladder"}, "flag provided but not defined: -engine"},
		{"negative_perturb", []string{"-perturb", "-1"}, "-perturb must be >= 0"},
		{"missing_bounds", []string{"-bounds", "no-such-bounds.json"}, "-bounds"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, exit := runCheck(t, bin, tc.args...)
			if exit != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", exit, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr does not name the problem (want %q):\n%s", tc.wantErr, stderr)
			}
		})
	}
}

// claimLines strips the wall-clock timing from a reprocheck report,
// keeping only the verdict lines.
func claimLines(out string) []string {
	var keep []string
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "[PASS]") || strings.HasPrefix(ln, "[FAIL]") {
			keep = append(keep, ln)
		}
	}
	return keep
}

// TestReprocheckBounds runs the shipped binary against the committed
// static bounds report: the three latbound-envelope claims must appear
// and pass. Observed worst episodes only shrink with the sample count,
// so any scale that passes at 1.0 passes here too — a failure means
// either the committed report is stale (`make bounds`) or the static
// envelope no longer covers the dynamic model. Other claims may
// legitimately fail at this tiny scale (their orderings need samples),
// so only the latbound verdicts are asserted.
func TestReprocheckBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("integration (builds binary)")
	}
	bin := buildReprocheck(t)
	stdout, stderr, exit := runCheck(t, bin, "-scale", "0.05", "-bounds", filepath.Join("..", "..", "lint", "bounds.json"))
	if exit != 0 && exit != 1 {
		t.Fatalf("exit %d, want 0 or 1\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	for _, id := range []string{"latbound-stock", "latbound-shield", "latbound-resp"} {
		found := false
		for _, ln := range claimLines(stdout) {
			if strings.Contains(ln, id) {
				found = true
				if !strings.HasPrefix(ln, "[PASS]") {
					t.Errorf("claim %s did not pass: %s", id, ln)
				}
			}
		}
		if !found {
			t.Errorf("claim %s missing from report:\n%s", id, stdout)
		}
	}
}
