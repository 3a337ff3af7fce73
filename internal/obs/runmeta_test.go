package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestRunMetaSchemaGolden pins the runmeta.json schema: downstream
// consumers (external audit tooling) key on these field names, so a
// rename or restructure must show up as a golden diff, not as a silently
// empty read. Volatile fields (host identity,
// build stamp, times, durations) are normalized to fixed values — the
// test guards the shape, not the machine it runs on.
func TestRunMetaSchemaGolden(t *testing.T) {
	m := NewRunMeta("deucesim", []string{"-workload", "mcf", "-scheme", "deuce"})
	m.Config = map[string]interface{}{"seed": 1, "workload": "mcf"}
	m.AddOutput("out/mcf.jsonl")
	m.Finish()

	// Normalize everything that varies run to run or host to host.
	m.Build = BuildInfo{Module: "deuce", GoVersion: "go0.0.0"}
	m.Host.OS, m.Host.Arch, m.Host.CPUs, m.Host.Hostname = "linux", "amd64", 8, "host"
	m.Start = time.Date(2015, 3, 14, 0, 0, 0, 0, time.UTC)
	m.End = m.Start.Add(1500 * time.Millisecond)
	m.DurationMs = 1500

	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := string(blob) + "\n"

	path := filepath.Join("testdata", "runmeta_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run 'go test ./internal/obs -run TestRunMetaSchemaGolden -update'): %v", err)
	}
	if got != string(want) {
		t.Errorf("runmeta.json schema drifted from golden file — if intentional, update the golden AND its downstream consumers\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
