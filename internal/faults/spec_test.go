package faults_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/experiments"
	"shardmanager/internal/faults"
)

// fullGrammarSpec uses every action of the DSL once.
const fullGrammarSpec = `
		t=60s partition(region-a|region-b) for 120s
		t=75s partition(region-a>region-c) for 60s
		t=3m latency(region-a|region-c, x5) for 1m
		t=3m30s latency(region-a|region-b, +50ms) for 30s
		t=4m loss(region-a|region-b, 0.3) for 45s
		t=5m crash(rack:region-b/dc0/rack00) for 1m
		t=6m crash(machine:region-a-m0001) for 30s
		t=7m expire(region-c, 2) for 30s
		t=8m stall(coord) for 30s
		t=9m gray(region-b, 2, 300ms) for 1m
		t=10m crash(region:region-b)
	`

func TestParseSpecFullGrammar(t *testing.T) {
	s, err := faults.ParseSpec(fullGrammarSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 11 {
		t.Fatalf("parsed %d events, want 11", len(s.Events))
	}
	first := s.Events[0]
	if first.At != 60*time.Second || first.For != 120*time.Second {
		t.Fatalf("first event timing = %+v", first)
	}
	if first.Action.Name() != "partition" {
		t.Fatalf("first action = %s", first.Action.Name())
	}
	// expire consumes its "for" duration as the reconnect delay; the
	// injector has nothing to revert.
	expire := s.Events[7]
	if expire.Action.Name() != "expire-session" {
		t.Fatalf("event 7 = %s", expire.Action.Name())
	}
	if expire.For != 0 {
		t.Fatalf("expire event kept For=%v; reconnect should absorb it", expire.For)
	}
	// the last event is permanent
	if last := s.Events[10]; last.For != 0 || last.Action.Name() != "crash-region" {
		t.Fatalf("last event = %+v (%s)", last, last.Action.Name())
	}
	// String renders every event in the DSL, in time order.
	out := s.String()
	if !strings.Contains(out, "t=1m0s partition(region-a|region-b) for 2m0s") {
		t.Fatalf("String() missing partition line:\n%s", out)
	}
	if strings.Count(out, "\n") != 10 {
		t.Fatalf("String() = %d lines, want 11:\n%s", strings.Count(out, "\n")+1, out)
	}
}

const commentedSpec = "# a comment\nt=1s stall(coord) for 5s; t=10s partition(a|b) for 1s"

func TestParseSpecSemicolonSeparatedAndComments(t *testing.T) {
	s, err := faults.ParseSpec(commentedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(s.Events))
	}
}

var badSpecs = []string{
	"",
	"partition(a|b)",                 // missing t=
	"t=5s",                           // missing action
	"t=5s explode(a)",                // unknown action
	"t=5s partition(a|b) until 10s",  // bad trailing tokens
	"t=5s partition(a)",              // bad link
	"t=5s latency(a|b, 3)",           // bad amount
	"t=5s latency(a>b, x3)",          // one-way latency unsupported
	"t=5s loss(a|b, 1.5)",            // probability out of range
	"t=5s loss(a|b, NaN)",            // not a probability
	"t=5s latency(a|b, xNaN)",        // not a scale
	"t=5s latency(a|b, x+Inf)",       // not a finite scale
	"t=5s crash(planet:earth)",       // bad crash kind
	"t=5s crash(region-b)",           // missing kind:
	"t=5s gray(region-b)",            // missing delay
	"t=5s expire(region-c, zero)",    // bad count
	"t=5s stall(zookeeper)",          // unknown stall target
	"t=banana partition(a|b) for 1s", // bad time
	"t=5s partition(a|b) for -1s",    // negative duration
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range badSpecs {
		if _, err := faults.ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", spec)
		}
	}
}

// FuzzParseSpec feeds the parser what smbench -faults and smctl faults feed
// it: text from outside the program. No input may panic it, and whatever it
// accepts must survive a round trip — Scenario.String is the timeline a user
// is shown, so it has to be valid DSL for the same timeline.
func FuzzParseSpec(f *testing.F) {
	f.Add(fullGrammarSpec)
	f.Add(commentedSpec)
	f.Add(experiments.DefaultCompoundFaultSpec)
	for _, spec := range badSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := faults.ParseSpec(spec)
		if err != nil {
			return
		}
		text := s.String()
		again, err := faults.ParseSpec(text)
		if err != nil {
			t.Fatalf("String() of a parsed scenario does not re-parse: %v\n%s", err, text)
		}
		// String lists events in time order; parsing keeps clause order.
		want := append([]faults.Event(nil), s.Events...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
		if !reflect.DeepEqual(again.Events, want) {
			t.Fatalf("re-parsed scenario differs:\n%s\nvs\n%s", again, text)
		}
	})
}
