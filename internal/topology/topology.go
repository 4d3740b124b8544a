// Package topology models the physical fleet Shard Manager places shards
// onto: geo-distributed regions, each containing datacenters, racks, and
// machines, plus a WAN latency model between regions. The paper's soft goal
// "spread of replicas across fault domains at all levels, including regions,
// data centers, and racks" (§5.1) is defined against these domains.
package topology

import (
	"fmt"
	"time"
)

// RegionID names a geographic region (e.g. "frc", "prn", "odn").
type RegionID string

// MachineID uniquely names a machine within the fleet.
type MachineID string

// FaultDomainLevel identifies a level of the fault-domain hierarchy.
type FaultDomainLevel int

// Fault-domain levels, largest first.
const (
	LevelRegion FaultDomainLevel = iota
	LevelDatacenter
	LevelRack
)

// String returns the lowercase level name.
func (l FaultDomainLevel) String() string {
	switch l {
	case LevelRegion:
		return "region"
	case LevelDatacenter:
		return "datacenter"
	case LevelRack:
		return "rack"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Resource names a capacity/load dimension.
type Resource string

// Standard resources used by the experiments. Applications may balance on
// arbitrary synthetic metrics as well (§2.2.4); those are also Resources.
const (
	ResourceCPU     Resource = "cpu"
	ResourceStorage Resource = "storage"
	// ResourceShardCount is the synthetic "number of shards" metric used
	// by shard-count-based load balancing.
	ResourceShardCount Resource = "shard_count"
)

// Capacity is a multi-dimensional resource vector.
type Capacity map[Resource]float64

// Get returns the value for r (0 if absent).
func (c Capacity) Get(r Resource) float64 { return c[r] }

// Machine is one physical host.
type Machine struct {
	ID         MachineID
	Region     RegionID
	Datacenter string
	Rack       string
}

// Domain returns the machine's fault-domain name at the given level. Names
// are globally unique (prefixed by the enclosing domains).
func (m *Machine) Domain(level FaultDomainLevel) string {
	switch level {
	case LevelRegion:
		return string(m.Region)
	case LevelDatacenter:
		return string(m.Region) + "/" + m.Datacenter
	case LevelRack:
		return string(m.Region) + "/" + m.Datacenter + "/" + m.Rack
	default:
		panic(fmt.Sprintf("topology: unknown level %d", int(level)))
	}
}

// Fleet is the set of machines in scope plus the WAN latency model.
type Fleet struct {
	machines map[MachineID]*Machine
	order    []MachineID

	// index numbers every region name the fleet has been asked about —
	// machines' regions, SetLatency's, and whatever RegionIndex was handed
	// (an unknown region still has default latencies). A number, once
	// given, is never reused or changed.
	index map[RegionID]int
	// latency is the len(index) x len(index) one-way latency matrix,
	// row-major; unset is negative.
	latency []time.Duration
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet {
	return &Fleet{
		machines: make(map[MachineID]*Machine),
		index:    make(map[RegionID]int),
	}
}

// AddMachine registers a machine. It panics on duplicate IDs so that fleet
// construction bugs fail loudly.
func (f *Fleet) AddMachine(m *Machine) {
	if m == nil || m.ID == "" {
		panic("topology: AddMachine with nil or unnamed machine")
	}
	if _, dup := f.machines[m.ID]; dup {
		panic(fmt.Sprintf("topology: duplicate machine %q", m.ID))
	}
	f.machines[m.ID] = m
	f.order = append(f.order, m.ID)
	f.RegionIndex(m.Region)
}

// Machine returns the machine with the given ID, or nil.
func (f *Fleet) Machine(id MachineID) *Machine { return f.machines[id] }

// MachinesInRegion returns the machines located in region r, in registration
// order.
func (f *Fleet) MachinesInRegion(r RegionID) []*Machine {
	var out []*Machine
	for _, id := range f.order {
		if m := f.machines[id]; m.Region == r {
			out = append(out, m)
		}
	}
	return out
}

// MachinesInDomain returns the machines whose fault domain at the given
// level matches name (as produced by Machine.Domain), in registration order.
// Fault injection uses it to crash whole racks or datacenters.
func (f *Fleet) MachinesInDomain(level FaultDomainLevel, name string) []*Machine {
	var out []*Machine
	for _, id := range f.order {
		if m := f.machines[id]; m.Domain(level) == name {
			out = append(out, m)
		}
	}
	return out
}

// RegionIndex returns r's number in this fleet, giving it the next one if r
// has not been named before. Resolve a region once and keep the number:
// LatencyAt indexes the matrix with it.
func (f *Fleet) RegionIndex(r RegionID) int {
	if i, ok := f.index[r]; ok {
		return i
	}
	n := len(f.index)
	grown := make([]time.Duration, (n+1)*(n+1))
	for i := range grown {
		grown[i] = -1
	}
	for i := 0; i < n; i++ {
		copy(grown[i*(n+1):], f.latency[i*n:(i+1)*n])
	}
	f.latency = grown
	f.index[r] = n
	return n
}

// SetLatency records the one-way network latency between two regions
// (symmetric).
func (f *Fleet) SetLatency(a, b RegionID, d time.Duration) {
	if d < 0 {
		panic("topology: negative latency")
	}
	i, j := f.RegionIndex(a), f.RegionIndex(b)
	n := len(f.index)
	f.latency[i*n+j] = d
	f.latency[j*n+i] = d
}

// Latency returns the one-way latency between regions. Same-region latency
// defaults to LocalLatency when unset; cross-region latency defaults to
// DefaultWANLatency when unset.
func (f *Fleet) Latency(a, b RegionID) time.Duration {
	return f.LatencyAt(f.RegionIndex(a), f.RegionIndex(b))
}

// LatencyAt is Latency between the regions numbered i and j.
func (f *Fleet) LatencyAt(i, j int) time.Duration {
	if d := f.latency[i*len(f.index)+j]; d >= 0 {
		return d
	}
	if i == j {
		return LocalLatency
	}
	return DefaultWANLatency
}

// Default latencies used when a fleet does not configure explicit values.
const (
	// LocalLatency approximates an intra-region round hop.
	LocalLatency = 1 * time.Millisecond
	// DefaultWANLatency approximates an unconfigured cross-region hop.
	DefaultWANLatency = 40 * time.Millisecond
)

// Spec describes a fleet to synthesize. Builder helpers construct the
// regular topologies the experiments use.
type Spec struct {
	// Regions to create, in order.
	Regions []RegionID
	// MachinesPerRegion is the machine count in each region. Each region
	// has one datacenter, dc0, and max(1, MachinesPerRegion/4) racks, its
	// machines spread round-robin across them.
	MachinesPerRegion int
	// Latency maps region pairs to one-way latency. Optional.
	Latency map[[2]RegionID]time.Duration
}

// Build synthesizes the fleet described by the spec.
func Build(spec Spec) *Fleet {
	if len(spec.Regions) == 0 {
		panic("topology: Build with no regions")
	}
	if spec.MachinesPerRegion <= 0 {
		panic("topology: Build with no machines")
	}
	racks := max(1, spec.MachinesPerRegion/4)
	f := NewFleet()
	for _, region := range spec.Regions {
		for i := 0; i < spec.MachinesPerRegion; i++ {
			f.AddMachine(&Machine{
				ID:         MachineID(fmt.Sprintf("%s-m%04d", region, i)),
				Region:     region,
				Datacenter: "dc0",
				Rack:       fmt.Sprintf("rack%02d", i%racks),
			})
		}
	}
	for pair, d := range spec.Latency {
		f.SetLatency(pair[0], pair[1], d)
	}
	return f
}
