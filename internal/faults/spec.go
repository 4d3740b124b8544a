package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"shardmanager/internal/topology"
)

// ParseSpec parses the fault-scenario DSL into a Scenario. Clauses are
// separated by ';' or newlines; each clause is
//
//	t=<dur> <action> [for <dur>]
//
// with actions
//
//	partition(a|b)          symmetric region partition
//	partition(a>b)          one-way partition from a to b
//	latency(a|b, x3)        scale link latency (both directions)
//	latency(a|b, +50ms)     add link latency (both directions)
//	loss(a|b, 0.3)          per-message drop probability
//	crash(machine:<id>)     kill one machine
//	crash(rack:<domain>)    kill a rack ("region/dc0/rack01")
//	crash(dc:<domain>)      kill a datacenter ("region/dc0")
//	crash(region:<region>)  kill a whole region
//	expire(region[, n])     expire coord sessions of n servers (default all);
//	                        "for <dur>" is the reconnect delay
//	stall(coord)            reject all coordination-store writes
//	gray(region[, n], d)    slow n servers (default all) by d per request
//
// Example: "t=60s partition(region-a|region-b) for 120s; t=4m loss(region-a|region-c, 0.2) for 1m".
func ParseSpec(spec string) (*Scenario, error) {
	s := NewScenario()
	for _, raw := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == '\n' }) {
		clause := strings.TrimSpace(raw)
		if clause == "" || strings.HasPrefix(clause, "#") {
			continue
		}
		ev, err := parseClause(clause)
		if err != nil {
			return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
		s.Events = append(s.Events, ev)
	}
	if len(s.Events) == 0 {
		return nil, fmt.Errorf("faults: empty scenario spec")
	}
	return s, nil
}

func parseClause(clause string) (Event, error) {
	fields := strings.Fields(clause)
	if len(fields) < 2 {
		return Event{}, fmt.Errorf("want \"t=<dur> <action> [for <dur>]\"")
	}
	if !strings.HasPrefix(fields[0], "t=") {
		return Event{}, fmt.Errorf("clause must start with t=<dur>")
	}
	at, err := time.ParseDuration(strings.TrimPrefix(fields[0], "t="))
	if err != nil {
		return Event{}, fmt.Errorf("bad time: %w", err)
	}
	// The action may contain spaces ("gray(region-b, 2, 300ms)"), so take
	// everything up to an optional trailing "for <dur>" as the action text.
	rest := fields[1:]
	var dur time.Duration
	if n := len(rest); n >= 2 && rest[n-2] == "for" {
		dur, err = time.ParseDuration(rest[n-1])
		if err != nil {
			return Event{}, fmt.Errorf("bad duration: %w", err)
		}
		if dur < 0 {
			return Event{}, fmt.Errorf("negative duration %s", dur)
		}
		rest = rest[:n-2]
	}
	actionText := strings.Join(rest, " ")
	if strings.Contains(actionText, " for ") || !strings.HasSuffix(actionText, ")") {
		return Event{}, fmt.Errorf("trailing tokens; want [for <dur>]")
	}
	action, selfHealing, err := parseAction(actionText, dur)
	if err != nil {
		return Event{}, err
	}
	if selfHealing {
		// The action consumes the duration itself (e.g. session reconnect);
		// there is nothing for the injector to revert.
		dur = 0
	}
	return Event{At: at, For: dur, Action: action}, nil
}

// parseAction parses "name(args)". dur is the clause's "for" duration, which
// self-healing actions absorb (returning selfHealing=true).
func parseAction(s string, dur time.Duration) (action Action, selfHealing bool, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return nil, false, fmt.Errorf("action %q: want name(args)", s)
	}
	name := s[:open]
	var args []string
	if inner := strings.TrimSpace(s[open+1 : len(s)-1]); inner != "" {
		for _, a := range strings.Split(inner, ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	switch name {
	case "partition":
		if len(args) != 1 {
			return nil, false, fmt.Errorf("partition wants one link argument")
		}
		from, to, oneWay, err := parseLink(args[0])
		if err != nil {
			return nil, false, err
		}
		if oneWay {
			return PartitionOneWay(from, to), false, nil
		}
		return Partition(from, to), false, nil
	case "latency":
		if len(args) != 2 {
			return nil, false, fmt.Errorf("latency wants (a|b, x<scale> or +<dur>)")
		}
		from, to, oneWay, err := parseLink(args[0])
		if err != nil {
			return nil, false, err
		}
		if oneWay {
			return nil, false, fmt.Errorf("latency faults are symmetric; use a|b")
		}
		switch {
		case strings.HasPrefix(args[1], "x"):
			f, err := strconv.ParseFloat(args[1][1:], 64)
			if err != nil || !(f > 0) || math.IsInf(f, 0) { // !(f > 0) also rejects NaN
				return nil, false, fmt.Errorf("bad latency scale %q", args[1])
			}
			return LatencyScale(from, to, f), false, nil
		case strings.HasPrefix(args[1], "+"):
			d, err := time.ParseDuration(args[1][1:])
			if err != nil || d <= 0 {
				return nil, false, fmt.Errorf("bad latency delta %q", args[1])
			}
			return LatencyAdd(from, to, d), false, nil
		default:
			return nil, false, fmt.Errorf("latency amount %q: want x<scale> or +<dur>", args[1])
		}
	case "loss":
		if len(args) != 2 {
			return nil, false, fmt.Errorf("loss wants (a|b, p)")
		}
		from, to, oneWay, err := parseLink(args[0])
		if err != nil {
			return nil, false, err
		}
		if oneWay {
			return nil, false, fmt.Errorf("loss faults are symmetric; use a|b")
		}
		p, err := strconv.ParseFloat(args[1], 64)
		if err != nil || !(p > 0 && p <= 1) { // written so NaN is rejected
			return nil, false, fmt.Errorf("bad loss probability %q", args[1])
		}
		return PacketLoss(from, to, p), false, nil
	case "crash":
		if len(args) != 1 {
			return nil, false, fmt.Errorf("crash wants one kind:target argument")
		}
		kind, target, ok := strings.Cut(args[0], ":")
		if !ok {
			return nil, false, fmt.Errorf("crash target %q: want kind:name", args[0])
		}
		switch kind {
		case "machine":
			return CrashMachine(topology.MachineID(target)), false, nil
		case "rack":
			return CrashRack(target), false, nil
		case "dc":
			return CrashDatacenter(target), false, nil
		case "region":
			return CrashRegion(topology.RegionID(target)), false, nil
		default:
			return nil, false, fmt.Errorf("crash kind %q: want machine|rack|dc|region", kind)
		}
	case "expire":
		if len(args) < 1 || len(args) > 2 {
			return nil, false, fmt.Errorf("expire wants (region[, n])")
		}
		n := 0
		if len(args) == 2 {
			n, err = strconv.Atoi(args[1])
			if err != nil || n <= 0 {
				return nil, false, fmt.Errorf("bad server count %q", args[1])
			}
		}
		return ExpireSessions(topology.RegionID(args[0]), n, dur), true, nil
	case "stall":
		if len(args) != 1 || args[0] != "coord" {
			return nil, false, fmt.Errorf("stall wants (coord)")
		}
		return CoordStall(), false, nil
	case "gray":
		if len(args) < 2 || len(args) > 3 {
			return nil, false, fmt.Errorf("gray wants (region[, n], delay)")
		}
		n := 0
		delayArg := args[1]
		if len(args) == 3 {
			n, err = strconv.Atoi(args[1])
			if err != nil || n <= 0 {
				return nil, false, fmt.Errorf("bad server count %q", args[1])
			}
			delayArg = args[2]
		}
		d, err := time.ParseDuration(delayArg)
		if err != nil || d <= 0 {
			return nil, false, fmt.Errorf("bad gray delay %q", delayArg)
		}
		return Gray(topology.RegionID(args[0]), n, d), false, nil
	default:
		return nil, false, fmt.Errorf("unknown action %q", name)
	}
}

// parseLink parses "a|b" (symmetric) or "a>b" (one-way).
func parseLink(s string) (from, to topology.RegionID, oneWay bool, err error) {
	if a, b, ok := strings.Cut(s, "|"); ok {
		return topology.RegionID(strings.TrimSpace(a)), topology.RegionID(strings.TrimSpace(b)), false, nil
	}
	if a, b, ok := strings.Cut(s, ">"); ok {
		return topology.RegionID(strings.TrimSpace(a)), topology.RegionID(strings.TrimSpace(b)), true, nil
	}
	return "", "", false, fmt.Errorf("link %q: want a|b or a>b", s)
}
