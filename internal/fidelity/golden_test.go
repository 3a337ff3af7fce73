package fidelity

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"deuce/internal/exp"
)

// goldenDir is the committed CI-scale recording: `deucereport check
// -experiment all -writebacks 6000 -lines 512 -outdir` on amd64 (`make
// fidelity-record`). CI re-records it and fails on any byte difference.
const goldenDir = "testdata/gate"

// goldenChecks is the number of expectations the full gate verdicts: the
// paper expectations plus the extension durability drills.
const goldenChecks = 58

// TestGoldenRecording pins the committed recording three ways.
//
// Re-verdicting it runs no experiment, so a tolerance edit that would fail
// the gate fails here, at tier 1: every expectation must pass, none may go
// missing, and the recording must hold exactly the gated experiments.
//
// Re-measuring three of its experiments (fig5 and the two durability
// drills, the cheap ones) must write the same bytes as the golden files,
// so any moved value — even one inside its tolerance — fails the test
// until the golden copy is re-recorded. Floating-point results are only
// pinned on amd64 (arm64 fuses multiply-adds), and -short skips the runs.
//
// The live verdicts of those runs must equal the verdicts of their
// recording, so `check -from` reproduces what `check` decided.
func TestGoldenRecording(t *testing.T) {
	// What `deucereport check -experiment all` gates.
	exps := append(Expectations(), ExtensionExpectations()...)
	golden, err := exp.LoadTables(goldenDir)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("verdicts", func(t *testing.T) {
		r := EvaluateTables(golden, exps)
		if len(r.Missing) > 0 {
			t.Errorf("recording lacks %d gated metrics: %v", len(r.Missing), r.Missing)
		}
		if len(r.Verdicts) != goldenChecks || len(exps) != goldenChecks {
			t.Errorf("%d verdicts for %d expectations, want %d", len(r.Verdicts), len(exps), goldenChecks)
		}
		for _, v := range r.Failures() {
			t.Errorf("FAIL %s", v.Detail)
		}

		// The recording holds one file per gated experiment, named by its
		// ID, and nothing else.
		paths, err := filepath.Glob(filepath.Join(goldenDir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, p := range paths {
			id := strings.TrimSuffix(filepath.Base(p), ".json")
			if _, err := exp.ByID(id); err != nil {
				t.Errorf("%s: not a known experiment: %v", p, err)
			}
			files = append(files, id)
		}
		gated := ExperimentIDs(exps)
		sort.Strings(files)
		sort.Strings(gated)
		if !reflect.DeepEqual(files, gated) {
			t.Errorf("recorded experiments %v, gated experiments %v", files, gated)
		}

		// A recording without one gated table must fail as Missing, not
		// narrow the gate.
		partial := make(map[string]*exp.Table, len(golden))
		for id, tb := range golden {
			if id != "fig10" {
				partial[id] = tb
			}
		}
		r = EvaluateTables(partial, exps)
		if r.Pass() || len(r.Missing) != len(Filter(exps, []string{"fig10"})) {
			t.Errorf("dropping fig10 left %d missing (pass=%t), want every fig10 expectation missing",
				len(r.Missing), r.Pass())
		}
	})

	t.Run("remeasure", func(t *testing.T) {
		if testing.Short() {
			t.Skip("re-runs three experiments at the CI scale")
		}
		if runtime.GOARCH != "amd64" {
			t.Skipf("the recording is pinned on amd64; %s rounds differently", runtime.GOARCH)
		}
		ids := []string{"fig5", "ext-eadr", "ext-ctrrec"}
		sub := Filter(exps, ids)
		live, tables, err := Check(exp.RunConfig{Writebacks: 6000, Lines: 512, Seed: 1}, sub)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := exp.WriteTables(dir, tables); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			want, err := os.ReadFile(filepath.Join(goldenDir, id+".json"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, id+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the golden recording at %s; if the change is intended, re-record with `make fidelity-record`",
					id, firstDiff(want, got))
			}
		}

		recorded, err := exp.LoadTables(dir)
		if err != nil {
			t.Fatal(err)
		}
		if again := EvaluateTables(recorded, sub); !reflect.DeepEqual(live, again) {
			t.Errorf("recorded verdicts differ from the live check:\nlive:\n%s\nrecorded:\n%s",
				live.Markdown(), again.Markdown())
		}
	})
}

// firstDiff names the first line on which got departs from want.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: golden %q, measured %q", i+1, strings.TrimSpace(wl), strings.TrimSpace(gl))
		}
	}
	return "end of file"
}
