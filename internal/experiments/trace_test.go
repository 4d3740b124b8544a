package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// runTracedFailover builds a small primary/secondary deployment with tracing
// enabled, drains a primary-holding server (exercising the graceful §4.3
// migration protocol), then kills the machine under another primary
// (exercising failover promotion). It returns the tracer with the full run
// recorded.
func runTracedFailover(t *testing.T, seed uint64) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	cfg := orchestrator.Config{
		App:      "tracedkv",
		Strategy: shard.PrimarySecondary,
		Shards: UniformShardConfigs(20, 2, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount),
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: 40,
		},
		GracefulMigration: true,
		FailoverGrace:     10 * time.Second,
		AllocInterval:     15 * time.Second,
	}
	backing := apps.NewKVBacking()
	d := Build(DeploymentSpec{
		Regions:          []topology.RegionID{"west", "east"},
		ServersPerRegion: 4,
		Orch:             cfg,
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Tracer: tr,
		Seed:   seed,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	// Drain the primary of shard s00000: its primary replica must move via
	// the graceful protocol (prepare_add/prepare_drop/add/drop).
	victim, ok := d.Orch.AssignmentSnapshot().Primary(shard.ID("s00000"))
	if !ok {
		t.Fatal("s00000 has no primary after settle")
	}
	drained := false
	d.Orch.Drain(victim, func() { drained = true })
	for i := 0; i < 20 && !drained; i++ {
		d.Loop.RunFor(30 * time.Second)
	}
	if !drained {
		t.Fatalf("drain of %s did not complete", victim)
	}

	// Kill the machine under another shard's primary: after FailoverGrace a
	// secondary must be promoted via change_role.
	m := d.Orch.AssignmentSnapshot()
	var killed shard.ServerID
	for _, sid := range d.Orch.ShardIDs() {
		if p, ok := m.Primary(sid); ok && p != victim {
			killed = p
			break
		}
	}
	if killed == "" {
		t.Fatal("no primary left to kill")
	}
	for _, mgr := range d.Managers {
		if c, ok := mgr.Container(cluster.ContainerID(killed)); ok {
			mgr.KillMachine(c.Machine)
		}
	}
	d.Loop.RunFor(2 * time.Minute)
	return tr
}

func TestFailoverTraceCapturesMigrationLifecycle(t *testing.T) {
	tr := runTracedFailover(t, 7)

	// At least one completed graceful migration span with all four protocol
	// steps as children.
	steps := []string{"prepare_add_shard", "prepare_drop_shard", "add_shard", "drop_shard"}
	var complete *trace.Span
	for _, sp := range tr.FindSpans("orchestrator", "migration") {
		if !sp.Ended || sp.Attr("ok") != "true" || sp.Attr("graceful") != "true" {
			continue
		}
		have := map[string]bool{}
		for _, c := range tr.Spans() {
			if c.Parent == sp.ID {
				have[c.Name] = true
			}
		}
		all := true
		for _, s := range steps {
			all = all && have[s]
		}
		if all {
			complete = sp
			break
		}
	}
	if complete == nil {
		t.Fatal("no completed graceful migration span with all four protocol-step children")
	}
	if complete.Duration() <= 0 {
		t.Fatalf("migration span duration = %v", complete.Duration())
	}

	// Failover promotion shows up as change_role spans.
	if len(tr.FindSpans("orchestrator", "change_role")) == 0 {
		t.Fatal("no change_role spans after machine kill")
	}
	// The control plane's RPCs are spanned too; the simulator is not: no
	// kernel dispatch spans, and no per-message send spans.
	if len(tr.FindSpans("rpcnet", "rpc")) == 0 {
		t.Fatal("no rpcnet rpc spans recorded")
	}
	for _, sp := range tr.Spans() {
		if sp.Component == "sim.loop" || (sp.Component == "rpcnet" && sp.Name != "rpc") {
			t.Fatalf("retained span %s/%s, want none from sim.loop and only rpc from rpcnet", sp.Component, sp.Name)
		}
	}
	// Map publishes and membership watch fires are visible as zero-length
	// spans; the orchestrator, which consumes the watch, records its fire.
	publishes := tr.FindSpans("orchestrator", "publish")
	watches := tr.FindSpans("orchestrator", "watch_fire")
	if len(publishes) == 0 || len(watches) == 0 {
		t.Fatalf("publish spans = %d, watch_fire spans = %d; want both > 0", len(publishes), len(watches))
	}
	for _, sp := range append(publishes, watches...) {
		if !sp.Ended || sp.Duration() != 0 {
			t.Fatalf("%s span (ended %v) lasts %v, want a zero-length span", sp.Name, sp.Ended, sp.Duration())
		}
	}
}

// TestFailoverTraceIsDeterministic runs the identical scenario twice with the
// same seed and demands byte-identical Chrome exports — the property the
// -trace flag documents.
func TestFailoverTraceIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := runTracedFailover(t, 7).WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := runTracedFailover(t, 7).WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different trace bytes")
	}
	// Sanity: the export is a Perfetto-loadable Chrome trace document.
	if !strings.HasPrefix(a.String(), `{"displayTimeUnit":"ms"`) {
		t.Fatalf("unexpected export prefix: %.60s", a.String())
	}
}
