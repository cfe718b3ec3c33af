package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tab.Rows[row][col])
	}
	return v
}

func findRow(tab Table, prefix string) int {
	for i, r := range tab.Rows {
		if strings.HasPrefix(r[0], prefix) {
			return i
		}
	}
	return -1
}

func TestTableString(t *testing.T) {
	tab := Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in %q", want, s)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	ti := findRow(tab, "Total")
	if ti < 0 {
		t.Fatal("no Total row")
	}
	wants := []float64{89, 241, 486, 889}
	for i, w := range wants {
		if got := cell(t, tab, ti, i+1); got != w {
			t.Fatalf("total[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestFig2TailDependsOnHotRatio(t *testing.T) {
	tab := Fig2(true)
	// The 100% hot snapshot row must have a far lower p99.5 than 95%.
	var p995Hot100, p995Hot95 float64
	for i, r := range tab.Rows {
		if r[0] == "FC-snapshot 100% hot" && p995Hot100 == 0 {
			p995Hot100 = cell(t, tab, i, 2)
		}
		if r[0] == "FC-snapshot 95% hot" && p995Hot95 == 0 {
			p995Hot95 = cell(t, tab, i, 2)
		}
	}
	if p995Hot95 < 2*p995Hot100 {
		t.Fatalf("p99.5 95%%=%v vs 100%%=%v: tail not hot-ratio sensitive", p995Hot95, p995Hot100)
	}
}

func TestFig5DandelionOrdersOfMagnitudeFaster(t *testing.T) {
	tab := Fig5(true)
	cheri := findRow(tab, "D cheri")
	fc := findRow(tab, "FC")
	if cheri < 0 || fc < 0 {
		t.Fatal("missing rows")
	}
	// At the lowest rate: cheri p99 ~0.09ms, FC ~155ms: > 100x.
	if cell(t, tab, fc, 2)/cell(t, tab, cheri, 2) < 100 {
		t.Fatalf("FC/cheri latency ratio too small: %v / %v",
			tab.Rows[fc][2], tab.Rows[cheri][2])
	}
}

func TestFig6WasmtimeSlower(t *testing.T) {
	tab := Fig6(true)
	wt := findRow(tab, "WT")
	dk := findRow(tab, "D KVM")
	if cell(t, tab, wt, 2) <= cell(t, tab, dk, 2) {
		t.Fatalf("WT median %v not above D KVM %v (codegen factor)",
			tab.Rows[wt][2], tab.Rows[dk][2])
	}
}

func TestFigPhasesLinear(t *testing.T) {
	tab := FigPhases()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Dandelion uncached column grows roughly linearly: 16-phase within
	// [3x, 5x] of 4-phase.
	l4 := cell(t, tab, 1, 1)
	l16 := cell(t, tab, 3, 1)
	if r := l16 / l4; r < 3 || r > 5 {
		t.Fatalf("16/4 phase ratio = %v, want ~4", r)
	}
	// FC cold is the worst column at 16 phases.
	fcCold := cell(t, tab, 3, 4)
	for col := 1; col <= 3; col++ {
		if cell(t, tab, 3, col) >= fcCold {
			t.Fatalf("column %d not below FC cold", col)
		}
	}
}

func TestFig8DandelionLowestVariance(t *testing.T) {
	tab := Fig8(true)
	var dVar, fcVar float64
	for i, r := range tab.Rows {
		if r[0] == "Dandelion" && r[1] == "compression" {
			dVar = cell(t, tab, i, 4)
		}
		if strings.HasPrefix(r[0], "FC") && r[1] == "compression" {
			fcVar = cell(t, tab, i, 4)
		}
	}
	if dVar >= fcVar {
		t.Fatalf("Dandelion rel var %v not below FC %v", dVar, fcVar)
	}
}

func TestFig10MemoryRatio(t *testing.T) {
	tab := Fig10(true)
	kn := findRow(tab, "FC + Knative committed")
	dd := findRow(tab, "Dandelion committed")
	if kn < 0 || dd < 0 {
		t.Fatal("missing rows")
	}
	ratio := cell(t, tab, kn, 1) / cell(t, tab, dd, 1)
	if ratio < 8 {
		t.Fatalf("memory ratio = %.1f, want >= 8 (paper ~24x)", ratio)
	}
}

func TestFig1CommittedVsActive(t *testing.T) {
	tab := Fig1(true)
	committed := findRow(tab, "FC + Knative committed")
	active := findRow(tab, "VMs actively serving")
	if cell(t, tab, committed, 1) < 4*cell(t, tab, active, 1) {
		t.Fatalf("committed %v not well above active %v",
			tab.Rows[committed][1], tab.Rows[active][1])
	}
}

func TestFig9DandelionWins(t *testing.T) {
	tab := Fig9(60_000)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d: %v", len(tab.Rows), tab.Notes)
	}
	for i := range tab.Rows {
		dLat, dCost := cell(t, tab, i, 1), cell(t, tab, i, 2)
		aLat, aCost := cell(t, tab, i, 3), cell(t, tab, i, 4)
		if dLat >= aLat {
			t.Fatalf("%s: Dandelion latency %v not below Athena %v", tab.Rows[i][0], dLat, aLat)
		}
		if dCost >= aCost {
			t.Fatalf("%s: Dandelion cost %v not below Athena %v", tab.Rows[i][0], dCost, aCost)
		}
	}
}

func TestText2SQLWorkflow(t *testing.T) {
	res, err := RunText2SQL(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 5 || len(res.Millis) != 5 {
		t.Fatalf("steps = %v", res.Steps)
	}
	// The LLM step (index 1) must dominate, like the paper's 61%.
	var total float64
	for _, m := range res.Millis {
		total += m
	}
	if res.Millis[1] < total/2 {
		t.Fatalf("LLM step %.1f ms not dominant of %.1f ms", res.Millis[1], total)
	}
	// The answer contains the grouped sums from sqlmini.
	if !strings.Contains(res.Answer, "east") || !strings.Contains(res.Answer, "200") {
		t.Fatalf("answer = %q", res.Answer)
	}
}

func TestAblationWarmCacheShape(t *testing.T) {
	tab := AblationWarmCache()
	cold := findRow(tab, "always cold")
	warm := findRow(tab, "warm cache")
	if cell(t, tab, cold, 4) != 100 {
		t.Fatalf("always-cold cold%% = %v", tab.Rows[cold][4])
	}
	if cell(t, tab, warm, 4) >= 100 {
		t.Fatalf("warm cache cold%% = %v", tab.Rows[warm][4])
	}
}

func TestAblationBinaryCacheSavesLoad(t *testing.T) {
	tab := AblationBinaryCache()
	for i := range tab.Rows {
		if cell(t, tab, i, 1) <= cell(t, tab, i, 2) {
			t.Fatalf("%s: cached not cheaper", tab.Rows[i][0])
		}
	}
}

func TestAblationStaticSplitControllerCompetitive(t *testing.T) {
	tab := AblationStaticSplit()
	pi := -1.0
	worstStatic := -1.0
	for i, r := range tab.Rows {
		if r[1] != "2400" {
			continue
		}
		p99 := cell(t, tab, i, 2)
		if r[0] == "PI controller" {
			pi = p99
		} else if p99 > worstStatic {
			worstStatic = p99
		}
	}
	if pi < 0 || worstStatic < 0 {
		t.Fatal("rows missing")
	}
	if pi > worstStatic {
		t.Fatalf("PI controller p99 %v worse than worst static %v", pi, worstStatic)
	}
}

// TestFig7SweepsEverySystem: the quick sweep evaluates each of the five
// systems once per application.
func TestFig7SweepsEverySystem(t *testing.T) {
	tab := Fig7(true)
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 2 apps x 5 systems", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %v does not match header %v", row, tab.Header)
		}
	}
}
