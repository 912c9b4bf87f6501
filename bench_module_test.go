package repro

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets: bench/ is its own module, so the tier-1
// `go build ./... && go test ./...` never compiles it — a renamed
// option field or a deleted function would pass here and break
// bench/run.sh. Vetting the module from this test closes that gap.
func TestBenchModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
