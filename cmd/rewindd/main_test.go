package main

import (
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestFlagBudget keeps the daemon's option count where the flag cull left
// it: every flag is a configuration the tests and the benchmark would have
// to cover, so a new one has to displace an old one, and the retired names
// stay retired (their values are the constants at the top of main.go).
func TestFlagBudget(t *testing.T) {
	out, err := exec.Command("go", "run", ".", "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("rewindd -h: %v\n%s", err, out)
	}
	flags := regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(string(out), -1)
	if len(flags) == 0 || len(flags) > 15 {
		t.Errorf("rewindd -h lists %d flags, want 1..15:\n%s", len(flags), out)
	}
	retired := " exclusive-reads serial-writes read-retries obs-off group-commit gc-window gc-max group-size" +
		" recovery-workers checkpoint-pause compact-dead-frac compact-min-dead compact-moves stats-every "
	for _, f := range flags {
		if strings.Contains(retired, " "+f[1]+" ") {
			t.Errorf("retired flag -%s is back", f[1])
		}
	}
}
