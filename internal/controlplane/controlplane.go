// Package controlplane implements the accounting half of SM's scale-out
// global control plane (§6.1): a single mini-SM cannot manage millions of
// servers and billions of shards, so the application manager divides each
// registered application into partitions, the partition registry packs the
// partitions onto a pool of mini-SMs, and Stats summarizes the pool (the read
// service's query).
//
//	ApplicationRegistry -> ApplicationManager -> partitions
//	                    -> PartitionRegistry  -> mini-SMs -> Stats
//
// A Partition is an accounting unit (server and shard counts). The
// Fig 16 experiment partitions the synthetic fleet of package workload
// through this code.
package controlplane

import (
	"fmt"

	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// Kind distinguishes regional from geo-distributed mini-SMs; a mini-SM
// manages deployments of one kind (§8.1 reports 139 regional and 48 geo
// mini-SMs).
type Kind int

// Mini-SM kinds.
const (
	Regional Kind = iota
	Geo
)

// AppSpec registers an application with the control plane.
type AppSpec struct {
	App     shard.AppID
	Servers int
	Shards  int
	// Regions the deployment spans; one region = regional deployment.
	Regions []topology.RegionID
}

// Kind derives the deployment kind.
func (a AppSpec) Kind() Kind {
	if len(a.Regions) > 1 {
		return Geo
	}
	return Regional
}

// Partition is one managed slice of an application: servers in a partition
// may come from different regions, and a shard's replicas always stay
// within one partition (§6.1).
type Partition struct {
	Servers int
	Shards  int
}

// MiniSM is one control-plane instance managing some partitions.
type MiniSM struct {
	Kind       Kind
	Partitions []*Partition
}

// Servers returns the total servers managed.
func (m *MiniSM) Servers() int {
	n := 0
	for _, p := range m.Partitions {
		n += p.Servers
	}
	return n
}

// Shards returns the total shard replicas managed.
func (m *MiniSM) Shards() int {
	n := 0
	for _, p := range m.Partitions {
		n += p.Shards
	}
	return n
}

// Limits bound what one partition and one mini-SM may hold. Paper: a
// partition "typically comprises thousands of servers and hundreds of
// thousands of shard replicas"; the largest mini-SMs manage ~50K servers
// and ~1.3M shards (§8.1).
type Limits struct {
	PartitionMaxServers int
	PartitionMaxShards  int
	MiniSMMaxServers    int
	MiniSMMaxShards     int
}

// DefaultLimits mirror the paper's magnitudes.
func DefaultLimits() Limits {
	return Limits{
		PartitionMaxServers: 5000,
		PartitionMaxShards:  500000,
		MiniSMMaxServers:    50000,
		MiniSMMaxShards:     1300000,
	}
}

// ControlPlane is the global layer: registries plus the mini-SM pool.
type ControlPlane struct {
	limits Limits

	apps map[shard.AppID]bool
	// miniSMs is the pool in creation order.
	miniSMs []*MiniSM
}

// New creates an empty control plane.
func New(limits Limits) *ControlPlane {
	if limits.PartitionMaxServers <= 0 || limits.MiniSMMaxServers <= 0 ||
		limits.PartitionMaxShards <= 0 || limits.MiniSMMaxShards <= 0 {
		panic("controlplane: non-positive limits")
	}
	return &ControlPlane{limits: limits, apps: make(map[shard.AppID]bool)}
}

// RegisterApp admits an application: the application manager divides it
// into partitions and the partition registry assigns each partition to a
// mini-SM of the right kind, creating new mini-SMs as the pool fills
// ("as the system scales, more mini-SMs can be added to scale out").
func (cp *ControlPlane) RegisterApp(spec AppSpec) ([]*Partition, error) {
	if spec.App == "" || spec.Servers <= 0 || spec.Shards < 0 || len(spec.Regions) == 0 {
		return nil, fmt.Errorf("controlplane: invalid spec %+v", spec)
	}
	if cp.apps[spec.App] {
		return nil, fmt.Errorf("controlplane: app %q already registered", spec.App)
	}
	cp.apps[spec.App] = true

	parts := cp.split(spec)
	for _, p := range parts {
		cp.assign(p, spec.Kind())
	}
	return parts, nil
}

// split divides an application into partitions under the partition limits.
// An application manager "usually maps an application to one partition, but
// may divide a large application into multiple partitions".
func (cp *ControlPlane) split(spec AppSpec) []*Partition {
	nByServers := (spec.Servers + cp.limits.PartitionMaxServers - 1) / cp.limits.PartitionMaxServers
	nByShards := 1
	if spec.Shards > 0 {
		nByShards = (spec.Shards + cp.limits.PartitionMaxShards - 1) / cp.limits.PartitionMaxShards
	}
	n := nByServers
	if nByShards > n {
		n = nByShards
	}
	parts := make([]*Partition, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, &Partition{
			Servers: chunk(spec.Servers, n, i),
			Shards:  chunk(spec.Shards, n, i),
		})
	}
	return parts
}

// chunk splits total into n near-equal parts and returns part i.
func chunk(total, n, i int) int {
	base := total / n
	if i < total%n {
		return base + 1
	}
	return base
}

// assign places a partition on the least-loaded mini-SM of the kind that
// still fits it, creating a new mini-SM when none fits.
func (cp *ControlPlane) assign(p *Partition, kind Kind) {
	var best *MiniSM
	for _, m := range cp.miniSMs {
		if m.Kind != kind {
			continue
		}
		if m.Servers()+p.Servers > cp.limits.MiniSMMaxServers ||
			m.Shards()+p.Shards > cp.limits.MiniSMMaxShards {
			continue
		}
		if best == nil || m.Servers() < best.Servers() {
			best = m
		}
	}
	if best == nil {
		best = &MiniSM{Kind: kind}
		cp.miniSMs = append(cp.miniSMs, best)
	}
	best.Partitions = append(best.Partitions, p)
}

// Stats summarizes the pool: counts and largest mini-SM, the numbers
// Figure 16 plots.
type Stats struct {
	RegionalMiniSMs int
	GeoMiniSMs      int
	TotalServers    int
	TotalShards     int
	MaxServers      int
	MaxShards       int
}

// Stats computes pool statistics: the query §6.1's read service answers
// from its indices on the mini-SMs' metadata.
func (cp *ControlPlane) Stats() Stats {
	var st Stats
	for _, m := range cp.miniSMs {
		if m.Kind == Geo {
			st.GeoMiniSMs++
		} else {
			st.RegionalMiniSMs++
		}
		s, sh := m.Servers(), m.Shards()
		st.TotalServers += s
		st.TotalShards += sh
		if s > st.MaxServers {
			st.MaxServers = s
		}
		if sh > st.MaxShards {
			st.MaxShards = sh
		}
	}
	return st
}
