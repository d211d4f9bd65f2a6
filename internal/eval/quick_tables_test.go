package eval

import (
	"os"
	"strings"
	"testing"
)

// quickTablesFile pins the text of every vennbench experiment at quick scale
// with one seed, Figure 10 excepted (its numbers are wall-clock latencies). A
// change that moves a scheduling decision on purpose re-captures it; a
// refactor of the scheduler, the planner or the engine must leave it
// byte-identical.
const quickTablesFile = "testdata/quick_tables.txt"

func quickTables(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, ex := range Experiments(ScaleQuick, 1) {
		if ex.Name == "fig10" {
			continue
		}
		out, err := ex.Run()
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		b.WriteString("=== " + ex.Name + " ===\n" + out + "\n")
	}
	return b.String()
}

func TestQuickTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every quick-scale experiment")
	}
	want, err := os.ReadFile(quickTablesFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := quickTables(t); got != string(want) {
		t.Errorf("quick-scale tables differ from %s:\ngot:\n%s\nwant:\n%s", quickTablesFile, got, want)
	}
}
