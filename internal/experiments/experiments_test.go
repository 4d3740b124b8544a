package experiments

import (
	"fmt"
	"reflect"
	"shardmanager/internal/metrics"
	"slices"
	"strings"
	"testing"
	"time"
)

// The experiment tests run every harness at quick scale and assert the
// paper's qualitative claims — who wins, roughly by how much, and where the
// transitions fall — not absolute numbers.

func TestFig01PlannedDominatesUnplanned(t *testing.T) {
	r := Fig01(DefaultDemographicsParams())
	if len(r.Curves) != 2 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	var planned, unplanned float64
	for _, p := range r.Curves[0].Points {
		planned += p.V
	}
	for _, p := range r.Curves[1].Points {
		unplanned += p.V
	}
	ratio := planned / unplanned
	if ratio < 300 || ratio > 3000 {
		t.Fatalf("planned/unplanned = %.0f, want ~1000", ratio)
	}
}

func TestFig02GrowthReachesAMillion(t *testing.T) {
	r := Fig02()
	last := r.Curves[0].Points[len(r.Curves[0].Points)-1]
	if last.V < 9e5 {
		t.Fatalf("2021 machines = %.0f", last.V)
	}
}

func TestDemographicTablesRender(t *testing.T) {
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig15", "fig16"} {
		r, err := Run(id, RunConfig{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := r.Render()
		if !strings.Contains(out, "===") || len(out) < 100 {
			t.Fatalf("%s render too small:\n%s", id, out)
		}
	}
}

func TestFig16PoolShape(t *testing.T) {
	r := Fig16(DefaultDemographicsParams())
	// Both kinds of mini-SMs exist and the regional pool is larger, as in
	// production (139 regional vs 48 geo). The rows are exact: the figure is
	// the registry's split and packing of a seeded fleet, so any change to
	// either shows here.
	want := [][]string{
		{"regional mini-SMs", "3"},
		{"geo-distributed mini-SMs", "2"},
		{"total servers managed", "71345"},
		{"total shards managed", "5087262"},
		{"largest mini-SM servers", "16478"},
		{"largest mini-SM shards", "1260362"},
	}
	if got := r.Tables[0].Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("mini-SM pool rows = %v, want %v", got, want)
	}
}

func atoiOrZero(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestFig17ShapeMatchesPaper(t *testing.T) {
	p := DefaultAvailabilityParams()
	p.Servers, p.Shards, p.RequestRate = 20, 1000, 30
	r := Fig17(RunConfig{}, p)
	// Parse outcomes from the table: SM best, no-graceful in between,
	// neither worst and below ~92%.
	rows := r.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	sm := parsePct(t, rows[0][1])
	noGraceful := parsePct(t, rows[1][1])
	neither := parsePct(t, rows[2][1])
	if !(sm > noGraceful && noGraceful > neither) {
		t.Fatalf("ordering violated: SM %.3f, no-graceful %.3f, neither %.3f", sm, noGraceful, neither)
	}
	if sm < 99.9 {
		t.Fatalf("SM success = %.3f%%, want ~100%%", sm)
	}
	if neither > 92 {
		t.Fatalf("neither success = %.3f%%, want <92%%", neither)
	}
	// SM's upgrade takes longer than the unconstrained one (paper: 1500s
	// vs 800s).
	smDur := parseDur(t, rows[0][3])
	neitherDur := parseDur(t, rows[2][3])
	if smDur <= neitherDur {
		t.Fatalf("SM upgrade (%v) should be slower than unconstrained (%v)", smDur, neitherDur)
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := sscanf(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func sscanf(s string, v *float64) (int, error) {
	s = strings.TrimSuffix(s, "%")
	var f float64
	var err error
	f, err = parseFloat(s)
	*v = f
	return 1, err
}

func parseFloat(s string) (float64, error) {
	var f float64
	var frac float64
	div := 1.0
	afterDot := false
	for _, c := range s {
		switch {
		case c == '.':
			afterDot = true
		case c >= '0' && c <= '9':
			if afterDot {
				div *= 10
				frac = frac*10 + float64(c-'0')
			} else {
				f = f*10 + float64(c-'0')
			}
		default:
			return 0, &parseError{s}
		}
	}
	return f + frac/div, nil
}

type parseError struct{ s string }

func (e *parseError) Error() string { return "cannot parse " + e.s }

func parseDur(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("parse duration %q: %v", s, err)
	}
	return d
}

func TestFig19FailoverShape(t *testing.T) {
	p := DefaultGeoFailoverParams()
	p.Shards, p.ECShards, p.ServersPerRegion, p.RequestRate = 300, 120, 10, 30
	r := Fig19(RunConfig{}, p)
	curve := r.Curves[0].Points
	steady := meanVal(curve, 20*time.Second, p.FailAt-10*time.Second)
	plateau := meanVal(curve, p.FailAt+60*time.Second, p.RecoverAt-10*time.Second)
	restored := meanVal(curve, p.RecoverAt+2*time.Minute, p.Horizon)
	if steady <= 0 || plateau < steady*5 {
		t.Fatalf("failover plateau (%.1fms) should dominate steady latency (%.1fms)", plateau, steady)
	}
	if restored > steady*2 {
		t.Fatalf("latency not restored after shards moved back: %.1fms vs steady %.1fms", restored, steady)
	}
}

func TestFig20LatencySpikesAndRecovers(t *testing.T) {
	p := DefaultDBShardParams()
	p.Shards, p.BatchSize, p.ServersPerRegion = 200, 50, 6
	r := Fig20(RunConfig{}, p)
	lat := r.Curves[0].Points
	steady := meanVal(lat, 0, p.Batch1At-time.Minute)
	spike := maxVal(lat, p.Batch1At, p.Batch1At+10*time.Minute)
	settled := meanVal(lat, p.Batch2At+40*time.Minute, p.Horizon)
	if spike < steady*3 {
		t.Fatalf("no latency spike after DBShard batch: steady %.2f spike %.2f", steady, spike)
	}
	if settled > steady*1.5 {
		t.Fatalf("latency did not recover: settled %.2f steady %.2f", settled, steady)
	}
}

func TestFig21AllViolationsFixedAndScaling(t *testing.T) {
	p := DefaultSolverScaleParams()
	p.Scales = [][2]int{{200, 15000}, {1000, 75000}}
	r := Fig21(p)
	for _, row := range r.Tables[0].Rows {
		if row[3] != "0" {
			t.Fatalf("violations remain at scale %s: %s", row[0], row[3])
		}
	}
	// Servers, shards, initial, final, floor and moves, then the evaluation
	// count at the curve's last point: every column a seed fixes.
	checkSolverRows(t, r, 6, [][]string{
		{"200", "15000", "49", "0", "0", "121", "7509"},
		{"1000", "75000", "203", "0", "0", "455", "34875"},
	})
}

// checkSolverRows holds a solver figure's rows, less the wall-time column
// timeCol, with each curve's last evaluation count appended, to the ones
// recorded: the solver is deterministic, so a change that means to keep its
// search keeps these to the digit.
func checkSolverRows(t *testing.T, r *Report, timeCol int, want [][]string) {
	t.Helper()
	rows := r.Tables[0].Rows
	if len(rows) != len(want) || len(r.Curves) != len(rows) {
		t.Fatalf("%d rows and %d curves, want %d", len(rows), len(r.Curves), len(want))
	}
	for i, row := range rows {
		pts := r.Curves[i].Points
		got := slices.Concat(row[:timeCol], row[timeCol+1:],
			[]string{fmt.Sprint(int64(pts[len(pts)-1].T / time.Microsecond))})
		if !slices.Equal(got, want[i]) {
			t.Errorf("row %d: %q, want %q", i, got, want[i])
		}
	}
}

func TestFig22OptimizedBeatsBaseline(t *testing.T) {
	p := DefaultSolverAblationParams()
	p.Servers, p.Shards = 400, 30000
	r := Fig22(p)
	rows := r.Tables[0].Rows
	optMoves := atoiOrZero(rows[0][2])
	baseMoves := atoiOrZero(rows[1][2])
	if optMoves == 0 || baseMoves == 0 {
		t.Fatalf("no moves recorded: %v", rows)
	}
	// The paper's claim: the baseline needs more shard moves (22% there).
	// Allow a little noise but the direction must hold.
	if float64(baseMoves) < float64(optMoves)*0.98 {
		t.Fatalf("baseline moves (%d) should not undercut optimized (%d)", baseMoves, optMoves)
	}
	// Variant, final, moves, evaluations, evaluations to fix 90% and floor,
	// then the evaluation count at the curve's last point. Recorded with CPU
	// as the world's metric 0, the one the target draw's cold bias reads: a
	// bucket's penalty sums its metrics in their order, so reordering them
	// moves these rows through the rounding of near-equal deltas. Quantizing
	// the world's loads to the solver's load units moved them the same way,
	// once (213,966 → 213,938 and 324,215 → 322,977 evaluations; the
	// baseline's moves 6,291 → 6,289).
	checkSolverRows(t, r, 5, [][]string{
		{"optimized (grouped, utilization-aware sampling)", "0", "6056", "213938", "211830", "0", "213938"},
		{"baseline (uniform random sampling)", "0", "6289", "322977", "315080", "0", "322977"},
	})
}

func TestFig23KeepsP99Bounded(t *testing.T) {
	p := DefaultContinuousLBParams()
	p.Servers, p.Shards, p.Days = 40, 1200, 1
	r := Fig23(p)
	var p99 *Curve
	for i := range r.Curves {
		if r.Curves[i].Name == "p99 CPU" {
			p99 = &r.Curves[i]
		}
	}
	if p99 == nil {
		t.Fatal("p99 curve missing")
	}
	for _, pt := range p99.Points[1:] {
		if pt.V > 0.92 {
			t.Fatalf("p99 CPU exceeded threshold at %v: %.2f", pt.T, pt.V)
		}
	}
}

func TestFig18ErrorsStayFlat(t *testing.T) {
	p := DefaultProductionTraceParams()
	p.Servers, p.Shards, p.Days, p.BaseRate = 20, 600, 1, 5
	r := Fig18(RunConfig{}, p)
	var errCurve, moveCurve *Curve
	for i := range r.Curves {
		switch r.Curves[i].Name {
		case "client error rate":
			errCurve = &r.Curves[i]
		case "shard moves":
			moveCurve = &r.Curves[i]
		}
	}
	if maxVal(moveCurve.Points, 0, 1<<62) == 0 {
		t.Fatal("no shard moves despite upgrades")
	}
	if peak := maxVal(errCurve.Points, 0, 1<<62); peak > 0.5 {
		t.Fatalf("error rate spiked to %.2f/s", peak)
	}
}

func TestRegistryRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite is still seconds per figure")
	}
	for _, id := range IDs() {
		if id == "fig17" || id == "fig18" || id == "fig19" || id == "fig20" ||
			id == "fig21" || id == "fig22" || id == "fig23" {
			continue // exercised by their dedicated tests above
		}
		r, err := Run(id, RunConfig{})
		if err != nil || r == nil {
			t.Fatalf("Run(%s) = %v", id, err)
		}
		if Title(id) == "" {
			t.Fatalf("missing title for %s", id)
		}
	}
	if _, err := Run("nope", RunConfig{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestDownsampleKeepsEndpoints(t *testing.T) {
	in := make([]metrics.Point, 100)
	for i := range in {
		in[i] = point(time.Duration(i)*time.Second, float64(i))
	}
	out := downsample(in, 10)
	if len(out) != 10 || out[0].V != 0 || out[9].V != 99 {
		t.Fatalf("downsample = %v", out)
	}
	short := downsample(in[:5], 10)
	if len(short) != 5 {
		t.Fatalf("short downsample = %d", len(short))
	}
}
