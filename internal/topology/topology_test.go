package topology

import (
	"testing"
	"time"
)

func testFleet() *Fleet {
	return Build(Spec{
		Regions:           []RegionID{"frc", "prn"},
		MachinesPerRegion: 8,
	})
}

func TestBuildCounts(t *testing.T) {
	f := testFleet()
	if got := len(f.machines); got != 16 {
		t.Fatalf("machines = %d, want 16", got)
	}
	if got := len(f.MachinesInRegion("frc")); got != 8 {
		t.Fatalf("frc machines = %d, want 8", got)
	}
	if len(f.index) != 2 || f.RegionIndex("frc") != 0 || f.RegionIndex("prn") != 1 {
		t.Fatalf("regions numbered %v, want frc:0 prn:1", f.index)
	}
}

func TestMachineDomains(t *testing.T) {
	f := testFleet()
	m := f.MachinesInRegion("frc")[0]
	if m.Domain(LevelRegion) != "frc" {
		t.Fatalf("region domain = %q", m.Domain(LevelRegion))
	}
	if m.Domain(LevelDatacenter) != "frc/dc0" {
		t.Fatalf("dc domain = %q", m.Domain(LevelDatacenter))
	}
	if m.Domain(LevelRack) != "frc/dc0/rack00" {
		t.Fatalf("rack domain = %q", m.Domain(LevelRack))
	}
}

func TestDomainNamesAreGloballyUnique(t *testing.T) {
	f := testFleet()
	// rack00 exists in both regions but the qualified names must differ.
	domains := make(map[string]bool)
	for _, r := range []RegionID{"frc", "prn"} {
		for _, m := range f.MachinesInRegion(r) {
			domains[m.Domain(LevelRack)] = true
		}
	}
	if len(domains) != 4 {
		t.Fatalf("distinct racks = %d, want 4 (2 per region)", len(domains))
	}
}

func TestLatencyDefaultsAndOverrides(t *testing.T) {
	f := testFleet()
	if got := f.Latency("frc", "frc"); got != LocalLatency {
		t.Fatalf("local latency = %v", got)
	}
	if got := f.Latency("frc", "prn"); got != DefaultWANLatency {
		t.Fatalf("default WAN latency = %v", got)
	}
	f.SetLatency("frc", "prn", 70*time.Millisecond)
	if got := f.Latency("prn", "frc"); got != 70*time.Millisecond {
		t.Fatalf("latency not symmetric: %v", got)
	}
}

func TestSetLatencyRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFleet().SetLatency("a", "b", -time.Second)
}

func TestAddMachineRejectsDuplicates(t *testing.T) {
	f := NewFleet()
	f.AddMachine(&Machine{ID: "m1", Region: "r"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.AddMachine(&Machine{ID: "m1", Region: "r"})
}

func TestBuildSpreadsRacksRoundRobin(t *testing.T) {
	f := testFleet()
	counts := make(map[string]int)
	for _, m := range f.MachinesInRegion("frc") {
		counts[m.Domain(LevelRack)]++
	}
	for rack, n := range counts {
		if n != 4 {
			t.Fatalf("rack %s has %d machines, want 4", rack, n)
		}
	}
}

func TestBuildPanicsOnBadSpec(t *testing.T) {
	for name, spec := range map[string]Spec{
		"no regions":  {MachinesPerRegion: 1},
		"no machines": {Regions: []RegionID{"a"}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Build(spec)
		}()
	}
}

func TestBuildLatencySpec(t *testing.T) {
	f := Build(Spec{
		Regions:           []RegionID{"a", "b"},
		MachinesPerRegion: 1,
		Latency:           map[[2]RegionID]time.Duration{{"a", "b"}: 90 * time.Millisecond},
	})
	if got := f.Latency("b", "a"); got != 90*time.Millisecond {
		t.Fatalf("latency = %v", got)
	}
}

func TestFaultDomainLevelString(t *testing.T) {
	if LevelRegion.String() != "region" || LevelRack.String() != "rack" {
		t.Fatal("level names wrong")
	}
	if FaultDomainLevel(99).String() != "level(99)" {
		t.Fatal("unknown level name wrong")
	}
}
