package workload

import (
	"math"
	"testing"
	"time"

	"shardmanager/internal/sim"
)

func genFleet(t *testing.T) Fleet {
	t.Helper()
	return GenerateFleet(sim.NewRNG(42), 300)
}

func findShare(shares []Share, label string) Share {
	for _, s := range shares {
		if s.Label == label {
			return s
		}
	}
	return Share{}
}

func within(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestSchemeBreakdownMatchesPaper(t *testing.T) {
	f := genFleet(t)
	b := f.SchemeBreakdown()
	sm := findShare(b, "using SM")
	if !within(sm.ByApps, 0.54, 0.08) {
		t.Fatalf("SM by apps = %.2f, want ~0.54", sm.ByApps)
	}
	static := findShare(b, "static sharding")
	if !within(static.ByApps, 0.35, 0.08) {
		t.Fatalf("static by apps = %.2f, want ~0.35", static.ByApps)
	}
	custom := findShare(b, "custom sharding")
	// Custom sharding: ~1% of apps but a large server share (paper: 27%).
	if custom.ByApps > 0.05 {
		t.Fatalf("custom by apps = %.2f, want ~0.01", custom.ByApps)
	}
	if custom.ByServers < 0.08 {
		t.Fatalf("custom by servers = %.2f, want large (paper 0.27)", custom.ByServers)
	}
}

func TestDeploymentBreakdownMatchesPaper(t *testing.T) {
	f := genFleet(t)
	b := f.DeploymentBreakdown()
	geo := findShare(b, "geo-distributed")
	if !within(geo.ByApps, 0.33, 0.10) {
		t.Fatalf("geo by apps = %.2f, want ~0.33", geo.ByApps)
	}
	if geo.ByServers <= geo.ByApps {
		t.Fatalf("geo apps should be larger than regional: servers %.2f apps %.2f",
			geo.ByServers, geo.ByApps)
	}
}

func TestStrategyBreakdownMatchesPaper(t *testing.T) {
	f := genFleet(t)
	b := f.StrategyBreakdown()
	po := findShare(b, "primary-only")
	if !within(po.ByApps, 0.68, 0.10) {
		t.Fatalf("primary-only by apps = %.2f, want ~0.68", po.ByApps)
	}
	so := findShare(b, "secondary-only")
	if so.ByServers <= so.ByApps {
		t.Fatalf("secondary-only should be server-heavy: %.2f vs %.2f", so.ByServers, so.ByApps)
	}
}

func TestLBBreakdownMatchesPaper(t *testing.T) {
	f := genFleet(t)
	b := f.LBBreakdown()
	sc := findShare(b, "shard count")
	if !within(sc.ByApps, 0.55, 0.10) {
		t.Fatalf("shard-count by apps = %.2f, want ~0.55", sc.ByApps)
	}
	mm := findShare(b, "multiple metrics")
	if mm.ByServers < 0.35 {
		t.Fatalf("multi-metric by servers = %.2f, want dominant (paper 0.65)", mm.ByServers)
	}
}

func TestDrainBreakdownMatchesPaper(t *testing.T) {
	f := genFleet(t)
	prim, sec := f.DrainBreakdown()
	if got := findShare(prim, "drain").ByApps; !within(got, 0.94, 0.06) {
		t.Fatalf("drain primaries by apps = %.2f, want ~0.94", got)
	}
	if got := findShare(sec, "drain").ByApps; !within(got, 0.22, 0.10) {
		t.Fatalf("drain secondaries by apps = %.2f, want ~0.22", got)
	}
}

func TestStorageBreakdownMatchesPaper(t *testing.T) {
	f := genFleet(t)
	b := f.StorageBreakdown()
	st := findShare(b, "storage")
	if !within(st.ByApps, 0.18, 0.08) {
		t.Fatalf("storage by apps = %.2f, want ~0.18", st.ByApps)
	}
	if st.ByServers <= st.ByApps {
		t.Fatalf("storage apps should be server-heavy: %.2f vs %.2f", st.ByServers, st.ByApps)
	}
}

func TestFleetDeterministicForSeed(t *testing.T) {
	a := GenerateFleet(sim.NewRNG(7), 100)
	b := GenerateFleet(sim.NewRNG(7), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fleet differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSMAppsFilter(t *testing.T) {
	f := genFleet(t)
	for _, a := range f.SMApps() {
		if a.Scheme != SchemeSM {
			t.Fatal("non-SM app in SMApps")
		}
	}
}

func TestPowerLawBounds(t *testing.T) {
	rng := sim.NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := powerLaw(rng, 4, 20000, 1.45)
		if v < 4 || v > 20000 {
			t.Fatalf("powerLaw out of bounds: %d", v)
		}
	}
}

func TestPowerLawIsHeavyTailed(t *testing.T) {
	rng := sim.NewRNG(1)
	small, large := 0, 0
	for i := 0; i < 10000; i++ {
		v := powerLaw(rng, 4, 20000, 1.45)
		if v < 100 {
			small++
		}
		if v > 5000 {
			large++
		}
	}
	if small < 5000 {
		t.Fatalf("most draws should be small: %d/10000", small)
	}
	if large == 0 {
		t.Fatal("tail never sampled")
	}
}

func TestContainerStopSeriesRatio(t *testing.T) {
	series := ContainerStopSeries(sim.NewRNG(3), 26, 100000)
	if len(series) != 26 {
		t.Fatalf("weeks = %d", len(series))
	}
	var planned, unplanned int64
	for _, s := range series {
		planned += s.Planned
		unplanned += s.Unplanned
		if s.Planned <= 0 || s.Unplanned < 0 {
			t.Fatalf("bad sample %+v", s)
		}
	}
	ratio := float64(planned) / float64(unplanned)
	if ratio < 300 || ratio > 3000 {
		t.Fatalf("planned/unplanned = %.0f, want ~1000", ratio)
	}
}

func TestAdoptionCurveShape(t *testing.T) {
	curve := AdoptionCurve(20)
	if len(curve) != 20 {
		t.Fatalf("points = %d", len(curve))
	}
	if curve[0].Year != 2012 || curve[len(curve)-1].Year != 2021 {
		t.Fatalf("year range = %v..%v", curve[0].Year, curve[len(curve)-1].Year)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Machines <= curve[i-1].Machines {
			t.Fatal("adoption not monotonically growing")
		}
	}
	last := curve[len(curve)-1].Machines
	if last < 9e5 {
		t.Fatalf("2021 machines = %.0f, want ~1M", last)
	}
}

func TestDiurnalBoundsAndPeriod(t *testing.T) {
	for h := 0; h < 48; h++ {
		v := Diurnal(time.Duration(h)*time.Hour, 0.4)
		if v < 0.6-1e-9 || v > 1.4+1e-9 {
			t.Fatalf("diurnal(%dh) = %v out of bounds", h, v)
		}
	}
	// 24h periodicity.
	a := Diurnal(3*time.Hour, 0.4)
	b := Diurnal(27*time.Hour, 0.4)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("not periodic: %v vs %v", a, b)
	}
}

func TestEnumStrings(t *testing.T) {
	if SchemeSM.String() != "using SM" || DeploymentGeo.String() != "geo-distributed" ||
		LBMultiMetric.String() != "multiple metrics" {
		t.Fatal("enum names wrong")
	}
}
