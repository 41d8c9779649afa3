package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// buildSimlint compiles the simlint binary once into a temp dir.
func buildSimlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "simlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build simlint: %v\n%s", err, out)
	}
	return bin
}

// scratchModule writes a throwaway module whose internal/sim package
// violates the nondeterminism rule and whose internal/core package
// violates seedderive, with one suppressed site.
func scratchModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("internal/sim/clock.go", `package sim

import "time"

func Stamp() int64 {
	return time.Now().UnixNano()
}
`)
	write("internal/core/seeds.go", `package core

func Shard(seed uint64, i int) uint64 {
	return seed + uint64(i)
}

func Legacy(seed uint64) uint64 {
	//simlint:allow seedderive scratch fixture exercising the suppression path
	return seed + 7919
}
`)
	// An order-sensitive map iteration in a file that imports sort: the
	// maporder finding carries a machine-applicable collect-then-sort
	// fix, which the SARIF test asserts below.
	write("internal/core/dump.go", `package core

import (
	"fmt"
	"sort"
)

func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

func Sorted(xs []string) {
	sort.Strings(xs)
}
`)
	return dir
}

func TestStandalone(t *testing.T) {
	bin := buildSimlint(t)
	mod := scratchModule(t)

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatalf("simlint exited 0 on a tree with violations\nstdout:\n%s", stdout.String())
	}
	out := stdout.String()
	// Each violation must be attributed to the analyzer that owns the rule.
	if !strings.Contains(out, "time.Now") || !strings.Contains(out, "(nondeterminism)") {
		t.Errorf("missing nondeterminism finding for time.Now:\n%s", out)
	}
	if !strings.Contains(out, "arithmetic on a seed") || !strings.Contains(out, "(seedderive)") {
		t.Errorf("missing seedderive finding:\n%s", out)
	}
	if strings.Contains(out, "Legacy") || strings.Count(out, "(seedderive)") != 1 {
		t.Errorf("suppressed site leaked into findings:\n%s", out)
	}
}

// TestReasonlessAllow: an allow directive without a justification
// string is itself a finding, attributed to the "simlint"
// pseudo-analyzer, and never suppresses the diagnostic it annotates —
// the escape hatch stays auditable end to end.
func TestReasonlessAllow(t *testing.T) {
	bin := buildSimlint(t)
	mod := scratchModule(t)
	extra := `package core

func Shift(seed uint64) uint64 {
	//simlint:allow seedderive
	return seed + 13
}

//simlint:allow latbound
func pad() { _ = pad }
`
	if err := os.WriteFile(filepath.Join(mod, "internal", "core", "shift.go"), []byte(extra), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("simlint exited 0 on a tree with reasonless allows:\n%s", out)
	}
	s := string(out)
	for _, want := range []string{
		"simlint:allow seedderive needs a reason",
		"simlint:allow latbound needs a reason",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing bad-directive finding %q:\n%s", want, s)
		}
	}
	if strings.Count(s, "(simlint)") != 2 {
		t.Errorf("bad directives must be attributed to the simlint pseudo-analyzer, twice:\n%s", s)
	}
	// Shard in seeds.go plus the annotated Shift line: the reasonless
	// directive suppresses nothing.
	if strings.Count(s, "(seedderive)") != 2 {
		t.Errorf("reasonless allow changed seedderive findings (want 2):\n%s", s)
	}
}

func TestStandaloneCleanTree(t *testing.T) {
	bin := buildSimlint(t)
	mod := scratchModule(t)
	// Lint only a package with no findings: exit status must be 0.
	cmd := exec.Command(bin, "-list")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("simlint -list: %v\n%s", err, out)
	}
	names := []string{"floatmerge", "globalstate", "hotalloc", "latbound", "maporder", "nondeterminism", "purity", "seedderive", "tracefmt", "unitsafe"}
	last := -1
	for _, name := range names {
		i := strings.Index(string(out), name+":")
		if i < 0 {
			t.Errorf("-list output missing analyzer %s", name)
			continue
		}
		// The registration list is normalized, so -list is sorted by
		// name regardless of registration order.
		if i < last {
			t.Errorf("-list output not sorted: %s appears before a lexically smaller name", name)
		}
		last = i
	}
	if !sort.StringsAreSorted(names) {
		t.Fatal("test bug: expected names must be given sorted")
	}
}

// TestSARIF runs simlint -format=sarif over the scratch module and
// checks the document shape GitHub code scanning requires: SARIF
// 2.1.0, one run, a rules table naming every analyzer, and results
// with ruleId + physical locations carrying line numbers.
func TestSARIF(t *testing.T) {
	bin := buildSimlint(t)
	mod := scratchModule(t)

	cmd := exec.Command(bin, "-format=sarif", "./...")
	cmd.Dir = mod
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatalf("simlint -format=sarif exited 0 on a tree with violations\n%s", stdout.String())
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				Fixes []struct {
					Description struct {
						Text string `json:"text"`
					} `json:"description"`
					ArtifactChanges []struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Replacements []struct {
							DeletedRegion struct {
								StartLine   int `json:"startLine"`
								StartColumn int `json:"startColumn"`
								EndLine     int `json:"endLine"`
								EndColumn   int `json:"endColumn"`
							} `json:"deletedRegion"`
							InsertedContent *struct {
								Text string `json:"text"`
							} `json:"insertedContent"`
						} `json:"replacements"`
					} `json:"artifactChanges"`
				} `json:"fixes"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version = %q, $schema = %q; want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "simlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	var ruleIDs []string
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs = append(ruleIDs, r.ID)
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has empty shortDescription", r.ID)
		}
	}
	for _, name := range []string{"floatmerge", "globalstate", "hotalloc", "latbound", "maporder", "nondeterminism", "purity", "seedderive", "tracefmt", "unitsafe"} {
		found := false
		for _, id := range ruleIDs {
			found = found || id == name
		}
		if !found {
			t.Errorf("rules table missing %s (got %v)", name, ruleIDs)
		}
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for a module with seeded violations")
	}
	sawNondet := false
	sawFix := false
	for _, r := range run.Results {
		if r.RuleID == "" || r.Level != "error" || r.Message.Text == "" {
			t.Errorf("malformed result: %+v", r)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result has %d locations, want 1", len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.Region.StartLine <= 0 {
			t.Errorf("result missing startLine: %+v", r)
		}
		if filepath.IsAbs(loc.ArtifactLocation.URI) || strings.Contains(loc.ArtifactLocation.URI, `\`) {
			t.Errorf("artifact URI %q is not a relative slash path", loc.ArtifactLocation.URI)
		}
		if r.RuleID == "nondeterminism" && strings.Contains(r.Message.Text, "time.Now") {
			sawNondet = true
		}
		// The seeded maporder violation sits in a file importing sort,
		// so its result must carry the collect-then-sort fix: a
		// description, one artifact change on the same file, and
		// replacements whose first entry is a pure insertion (zero-width
		// deleted region) introducing the sorted key slice.
		if r.RuleID == "maporder" && strings.Contains(r.Message.Text, "prints") {
			if len(r.Fixes) != 1 {
				t.Fatalf("maporder result has %d fixes, want 1:\n%+v", len(r.Fixes), r)
			}
			fix := r.Fixes[0]
			if !strings.Contains(fix.Description.Text, "sort") {
				t.Errorf("fix description %q does not mention sorting", fix.Description.Text)
			}
			if len(fix.ArtifactChanges) != 1 {
				t.Fatalf("fix has %d artifactChanges, want 1", len(fix.ArtifactChanges))
			}
			change := fix.ArtifactChanges[0]
			if change.ArtifactLocation.URI != r.Locations[0].PhysicalLocation.ArtifactLocation.URI {
				t.Errorf("fix edits %q but the finding is in %q",
					change.ArtifactLocation.URI, r.Locations[0].PhysicalLocation.ArtifactLocation.URI)
			}
			if len(change.Replacements) != 3 {
				t.Fatalf("fix has %d replacements, want 3 (prelude, range header, value rebind)", len(change.Replacements))
			}
			first := change.Replacements[0]
			if first.DeletedRegion.StartLine != first.DeletedRegion.EndLine ||
				first.DeletedRegion.StartColumn != first.DeletedRegion.EndColumn {
				t.Errorf("prelude replacement is not a pure insertion: %+v", first.DeletedRegion)
			}
			if first.InsertedContent == nil || !strings.Contains(first.InsertedContent.Text, "sort.Slice(") {
				t.Errorf("prelude replacement does not introduce the sorted slice: %+v", first.InsertedContent)
			}
			header := change.Replacements[1]
			if header.DeletedRegion.EndColumn <= header.DeletedRegion.StartColumn {
				t.Errorf("range-header replacement deletes nothing: %+v", header.DeletedRegion)
			}
			if header.InsertedContent == nil || !strings.Contains(header.InsertedContent.Text, ":= range sortedK") {
				t.Errorf("range-header replacement does not retarget the loop: %+v", header.InsertedContent)
			}
			sawFix = true
		}
	}
	if !sawNondet {
		t.Error("no nondeterminism time.Now result in SARIF output")
	}
	if !sawFix {
		t.Error("no maporder result carrying the collect-then-sort fix")
	}
}

// TestVetTool runs simlint under the real `go vet -vettool` protocol:
// -V=full for the build cache, -flags for flag discovery, then one
// .cfg compilation unit per package with compiler export data.
func TestVetTool(t *testing.T) {
	bin := buildSimlint(t)
	mod := scratchModule(t)

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = mod
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	if err == nil {
		t.Fatalf("go vet -vettool exited 0 on a tree with violations\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "time.Now") || !strings.Contains(s, "(nondeterminism)") {
		t.Errorf("vettool run missing nondeterminism finding:\n%s", s)
	}
	if !strings.Contains(s, "arithmetic on a seed") {
		t.Errorf("vettool run missing seedderive finding:\n%s", s)
	}
}

// TestBaseline exercises the -writebaseline / -baseline round trip on
// the scratch module: recording the current findings makes a
// subsequent gated run exit clean, a new violation still fails, and a
// stale baseline entry is harmless.
func TestBaseline(t *testing.T) {
	bin := buildSimlint(t)
	mod := scratchModule(t)
	baseline := filepath.Join(mod, "simlint.baseline")

	record := exec.Command(bin, "-writebaseline", baseline, "./...")
	record.Dir = mod
	if out, err := record.CombinedOutput(); err != nil {
		t.Fatalf("simlint -writebaseline: %v\n%s", err, out)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "internal/sim/clock.go:nondeterminism:") {
		t.Fatalf("baseline missing the seeded nondeterminism entry:\n%s", data)
	}

	gated := exec.Command(bin, "-baseline", baseline, "./...")
	gated.Dir = mod
	var stdout, stderr bytes.Buffer
	gated.Stdout, gated.Stderr = &stdout, &stderr
	if err := gated.Run(); err != nil {
		t.Fatalf("baselined run still failed: %v\nstdout:\n%s\nstderr:\n%s",
			err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "baselined finding(s) ignored") {
		t.Errorf("gated run did not report suppressed findings:\n%s", stderr.String())
	}

	// A brand-new violation must fail even with the baseline applied.
	extra := filepath.Join(mod, "internal", "sim", "extra.go")
	if err := os.WriteFile(extra, []byte("package sim\n\nimport \"time\"\n\nfunc Stamp2() int64 {\n\treturn time.Now().UnixNano()\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := exec.Command(bin, "-baseline", baseline, "./...")
	fresh.Dir = mod
	out, err := fresh.CombinedOutput()
	if err == nil {
		t.Fatalf("baselined run exited 0 with a new violation present:\n%s", out)
	}
	if !strings.Contains(string(out), "extra.go") {
		t.Errorf("new finding not reported:\n%s", out)
	}
	if err := os.Remove(extra); err != nil {
		t.Fatal(err)
	}

	// Baseline matching is a multiset: the entry key deliberately has no
	// line number, so a *duplicate* of a baselined finding — same file,
	// same analyzer, same message — must still fail the gate. One entry
	// buys one suppression, not unlimited ones.
	clock := filepath.Join(mod, "internal", "sim", "clock.go")
	src, err := os.ReadFile(clock)
	if err != nil {
		t.Fatal(err)
	}
	dup := string(src) + "\nfunc StampAgain() int64 {\n\treturn time.Now().UnixNano()\n}\n"
	if err := os.WriteFile(clock, []byte(dup), 0o644); err != nil {
		t.Fatal(err)
	}
	duped := exec.Command(bin, "-baseline", baseline, "./...")
	duped.Dir = mod
	out, err = duped.CombinedOutput()
	if err == nil {
		t.Fatalf("baselined run exited 0 with a duplicated violation present:\n%s", out)
	}
	if strings.Count(string(out), "(nondeterminism)") != 1 {
		t.Errorf("want exactly the one unsuppressed duplicate reported:\n%s", out)
	}

	// Re-recording the baseline captures both occurrences (one line
	// each), after which the gate passes again.
	rerecord := exec.Command(bin, "-writebaseline", baseline, "./...")
	rerecord.Dir = mod
	if out, err := rerecord.CombinedOutput(); err != nil {
		t.Fatalf("simlint -writebaseline (re-record): %v\n%s", err, out)
	}
	data, err = os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "internal/sim/clock.go:nondeterminism:") != 2 {
		t.Fatalf("re-recorded baseline does not list the duplicate twice:\n%s", data)
	}
	regated := exec.Command(bin, "-baseline", baseline, "./...")
	regated.Dir = mod
	if out, err := regated.CombinedOutput(); err != nil {
		t.Fatalf("re-recorded baseline run still failed: %v\n%s", err, out)
	}
}
