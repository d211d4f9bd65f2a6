package eval

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"venn/internal/workload"
)

// lineupFile pins every arm's average JCT on Table 1's and Figure 11's first
// quick-scale seed. A change that moves a scheduling decision on purpose
// re-captures it; a refactor of the lineup (how names map to schedulers,
// which package an arm lives in) must leave it byte-identical.
const lineupFile = "testdata/lineup_avgjct.txt"

// lineupAvgJCT runs the setups Table1 and Figure11 build for seed index 0 and
// returns one "experiment workload arm avgJCT" line per arm, sorted.
func lineupAvgJCT(t *testing.T) string {
	t.Helper()
	var lines []string
	run := func(exp string, sc workload.Scenario, seed int64, arms map[string]SchedulerFactory) {
		setup := NewSetup(ScaleQuick, seed)
		setup.Jobs.Scenario = sc
		cmp, err := Compare(setup, arms)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range cmp.Results {
			lines = append(lines, fmt.Sprintf("%s %s %s %d", exp, sc, name, int64(r.AvgJCT)))
		}
	}
	for _, sc := range workload.Scenarios() {
		run("table1", sc, int64(1000*int(sc)), StandardSchedulers())
	}
	for _, sc := range []workload.Scenario{workload.Low, workload.High} {
		run("fig11", sc, int64(6000*int(sc)), AblationSchedulers())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func TestLineupAvgJCTPinned(t *testing.T) {
	want, err := os.ReadFile(lineupFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := lineupAvgJCT(t); got != string(want) {
		t.Errorf("lineup average JCTs differ from %s:\ngot:\n%s\nwant:\n%s", lineupFile, got, want)
	}
}
