// Text dashboard rendering for Status — the `smctl status` view. Output is
// deterministic for a given snapshot: everything is pre-sorted by Snapshot
// and numbers render with fixed precision.
package healthmon

import (
	"fmt"
	"strings"
)

// pct renders an availability fraction as a percentage with enough digits
// to distinguish SLO-relevant differences (99.99% vs 99.999%).
func pct(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v*100), "0"), ".") + "%"
}

// Render returns the operator dashboard as text.
func (st *Status) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "health @ %s  (SLO target %s)\n", st.At, pct(st.SLOTarget))
	if len(st.Apps) == 0 {
		b.WriteString("  no applications observed\n")
	}
	for _, app := range st.Apps {
		fmt.Fprintf(&b, "\napp %s\n", app.App)
		fmt.Fprintf(&b, "  availability  %s (%d/%d ok)   5m %s burn %.2f   1h %s burn %.2f\n",
			pct(app.Availability), app.OK, app.Total,
			pct(app.Window5m), app.Burn5m, pct(app.Window1h), app.Burn1h)
		fmt.Fprintf(&b, "  error budget  %.1f%% remaining\n", app.BudgetRemaining*100)
		fmt.Fprintf(&b, "  shard map     v%d (%d publishes)   propagation max %s, %d deliveries (%d stale)\n",
			app.MapVersion, app.MapPublishes, app.MaxPropagation, app.Deliveries, app.StaleDeliveries)
		fmt.Fprintf(&b, "  migrations    %d ok / %d failed / %d active   role changes %d\n",
			app.MigrationsOK, app.MigrationsFailed, len(app.ActiveMigrations), app.RoleChanges)
		for _, mi := range app.ActiveMigrations {
			kind := "move"
			if mi.Graceful {
				kind = "graceful"
			}
			fmt.Fprintf(&b, "    active: %s  %s -> %s (%s, since %s)\n",
				mi.Shard, mi.From, mi.To, kind, mi.Since)
		}
		if len(app.WorstShards) > 0 {
			b.WriteString("  worst shards\n")
			for _, s := range app.WorstShards {
				fmt.Fprintf(&b, "    %-12s %s (%d/%d ok)\n", s.Shard, pct(s.Rate), s.OK, s.Total)
			}
		}
		if len(app.Violations) > 0 {
			b.WriteString("  slo violations\n")
			for _, iv := range app.Violations {
				fmt.Fprintf(&b, "    %s - %s\n", iv.From, iv.To)
			}
		} else {
			b.WriteString("  slo violations  none\n")
		}
		if regions := app.DomainsAt("region"); len(regions) > 0 {
			b.WriteString("  by region     ")
			for i, d := range regions {
				if i > 0 {
					b.WriteString("   ")
				}
				fmt.Fprintf(&b, "%s %s (%d/%d)", d.Domain, pct(d.Rate), d.OK, d.Total)
			}
			b.WriteByte('\n')
		}
	}
	if len(st.Regions) > 0 {
		b.WriteString("\ncluster\n")
		for _, r := range st.Regions {
			fmt.Fprintf(&b, "  region %-8s containers %d running, %d starts, %d stops (%d unplanned)\n",
				r.Region, r.Running, r.Starts, r.Stops, r.Unplanned)
		}
	}
	return b.String()
}

// DomainsAt returns the app's domain breakdown rows for one level.
func (a *AppStatus) DomainsAt(level string) []DomainAvail {
	var out []DomainAvail
	for _, d := range a.Domains {
		if d.Level == level {
			out = append(out, d)
		}
	}
	return out
}
