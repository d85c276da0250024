package failpointreg_test

import (
	"fmt"
	"reflect"
	"testing"

	"sprite/internal/analysis/failpointreg"
	"sprite/internal/analysis/linttest"
)

func TestFailpointreg(t *testing.T) {
	tree := linttest.RunTree(t, "a", failpointreg.Analyzer)
	refs := failpointreg.Sites(tree)

	type obs struct {
		name       string
		registered bool
	}
	var got []obs
	for _, r := range refs {
		got = append(got, obs{r.Name, r.Registered})
	}
	// Sites appear in source order; suppression silences the diagnostic but
	// the reference is still observed (it counts for the dead-entry audit).
	want := []obs{
		{"mig.init", true},
		{"mig.vm", true},
		{"mig.bogus", false},
		{"recovery.ping", true},
		{"mig.steams", false},
		{"mig.experimental", false},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observed sites = %v, want %v", got, want)
	}

	var dead []string
	for _, d := range failpointreg.DeadEntries(tree) {
		dead = append(dead, d.Message)
	}
	var wantDead []string
	for _, name := range []string{"mig.streams", "mig.pcb", "recovery.restart", "fleet.drain", "fleet.remediate", "fleet.readmit"} {
		wantDead = append(wantDead, fmt.Sprintf("internal/fault/failpoints.go: registered failpoint %q has no remaining call site; delete the entry or restore the site", name))
	}
	if !reflect.DeepEqual(dead, wantDead) {
		t.Errorf("DeadEntries = %v, want %v", dead, wantDead)
	}
}
