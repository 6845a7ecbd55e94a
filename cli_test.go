package mfpa

// CLI integration test: builds the four commands and drives the full
// generate → train(+save) → agent-replay → report pipeline through
// their real flag surfaces.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles one command into dir and returns the binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	gen := buildCmd(t, dir, "mfpagen")
	train := buildCmd(t, dir, "mfpatrain")
	agentBin := buildCmd(t, dir, "mfpaagent")
	report := buildCmd(t, dir, "mfpareport")

	fleetCSV := filepath.Join(dir, "fleet.csv")
	ticketsCSV := filepath.Join(dir, "tickets.csv")
	truthCSV := filepath.Join(dir, "truth.csv")
	modelJSON := filepath.Join(dir, "model.json")

	// Generate.
	out := run(t, gen, "-out", fleetCSV, "-tickets", ticketsCSV, "-truth", truthCSV,
		"-scale", "0.03", "-days", "100", "-seed", "7")
	if !strings.Contains(out, "wrote "+fleetCSV) {
		t.Fatalf("gen output: %s", out)
	}
	for _, p := range []string{fleetCSV, ticketsCSV, truthCSV} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("output %s missing or empty", p)
		}
	}

	// Train on the generated CSVs and save the model.
	out = run(t, train, "-data", fleetCSV, "-tickets", ticketsCSV,
		"-vendor", "I", "-save", modelJSON)
	if !strings.Contains(out, "TPR=") || !strings.Contains(out, "model envelope saved") {
		t.Fatalf("train output: %s", out)
	}
	if st, err := os.Stat(modelJSON); err != nil || st.Size() == 0 {
		t.Fatal("model envelope missing")
	}

	// Replay through the agent.
	out = run(t, agentBin, "-model", modelJSON, "-data", fleetCSV)
	if !strings.Contains(out, "drives scanned") {
		t.Fatalf("agent output: %s", out)
	}

	// A drive of another vendor cannot be scored by the vendor-I model:
	// the agent must fail and name both vendors, not report zero drives.
	cmd := exec.Command(agentBin, "-model", modelJSON, "-data", fleetCSV, "-sn", "II-H000000")
	if raw, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("agent accepted a vendor-II drive for a vendor-I model:\n%s", raw)
	} else if out := string(raw); !strings.Contains(out, "vendor II") || !strings.Contains(out, "vendor I ") {
		t.Fatalf("agent error does not name both vendors: %s", out)
	}

	// One cheap report experiment, with SVG output.
	svgDir := filepath.Join(dir, "figs")
	out = run(t, report, "-exp", "fig2", "-scale", "0.03", "-svg", svgDir)
	if !strings.Contains(out, "Fig 2") {
		t.Fatalf("report output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(svgDir, "fig2_bathtub.svg")); err != nil {
		t.Fatal("SVG figure not written")
	}

	// -list enumerates the registry.
	out = run(t, report, "-list")
	if !strings.Contains(out, "fig9") || !strings.Contains(out, "gridsearch") {
		t.Fatalf("list output: %s", out)
	}
}
