package shard

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRoleAndStrategyStrings(t *testing.T) {
	if RolePrimary.String() != "primary" || RoleSecondary.String() != "secondary" {
		t.Fatal("role names wrong")
	}
	if PrimaryOnly.String() != "primary-only" || PrimarySecondary.String() != "primary-secondary" {
		t.Fatal("strategy names wrong")
	}
	if Role(9).String() != "role(9)" || ReplicationStrategy(9).String() != "strategy(9)" {
		t.Fatal("unknown enum names wrong")
	}
}

func TestMapPrimaryAndReplicas(t *testing.T) {
	m := NewMap("app")
	m.Entries["s1"] = []Assignment{
		{Server: "a", Role: RoleSecondary},
		{Server: "b", Role: RolePrimary},
	}
	p, ok := m.Primary("s1")
	if !ok || p != "b" {
		t.Fatalf("Primary = %q ok=%v", p, ok)
	}
	if _, ok := m.Primary("missing"); ok {
		t.Fatal("Primary of missing shard")
	}
	if len(m.Replicas("s1")) != 2 {
		t.Fatal("Replicas wrong")
	}
}

func TestMapCloneIsDeep(t *testing.T) {
	m := NewMap("app")
	m.Entries["s1"] = []Assignment{{Server: "a", Role: RolePrimary}}
	c := m.Clone()
	c.Entries["s1"][0].Server = "x"
	c.Entries["s2"] = []Assignment{{Server: "y"}}
	if m.Entries["s1"][0].Server != "a" || len(m.Entries) != 1 {
		t.Fatal("Clone shares state")
	}
}

func TestMapServersAndShardsOn(t *testing.T) {
	m := NewMap("app")
	m.Entries["s1"] = []Assignment{{Server: "b", Role: RolePrimary}, {Server: "a", Role: RoleSecondary}}
	m.Entries["s2"] = []Assignment{{Server: "a", Role: RolePrimary}}
	servers := m.Servers()
	if len(servers) != 2 || servers[0] != "a" || servers[1] != "b" {
		t.Fatalf("Servers = %v", servers)
	}
	on := m.ShardsOn("a")
	if len(on) != 2 || on[0] != "s1" || on[1] != "s2" {
		t.Fatalf("ShardsOn = %v", on)
	}
}

func TestMapValidate(t *testing.T) {
	m := NewMap("app")
	m.Entries["ok"] = []Assignment{{Server: "a", Role: RolePrimary}, {Server: "b", Role: RoleSecondary}}
	if err := m.Validate(); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	m.Entries["two-primaries"] = []Assignment{{Server: "a", Role: RolePrimary}, {Server: "b", Role: RolePrimary}}
	if err := m.Validate(); err == nil {
		t.Fatal("two primaries accepted")
	}
	delete(m.Entries, "two-primaries")
	m.Entries["dup"] = []Assignment{{Server: "a", Role: RolePrimary}, {Server: "a", Role: RoleSecondary}}
	if err := m.Validate(); err == nil {
		t.Fatal("duplicate server accepted")
	}
}

func TestNewKeyspaceUnevenRanges(t *testing.T) {
	// The paper's example: S0:[1,9], S1:[10,99], S2:[100,100000]. With
	// string keys we express it as boundaries.
	ks, err := NewKeyspace([]ID{"S0", "S1", "S2"}, []string{"", "10", "100"})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]ID{
		"0":    "S0",
		"1":    "S0",
		"0999": "S0",
		"10":   "S1",
		"1000": "S2", // string order: "1000" >= "100"
		"100":  "S2",
		"zzz":  "S2",
	}
	for key, want := range cases {
		if got := ks.ShardFor(key); got != want {
			t.Errorf("ShardFor(%q) = %s, want %s", key, got, want)
		}
	}
}

func TestNewKeyspaceValidation(t *testing.T) {
	if _, err := NewKeyspace(nil, nil); err == nil {
		t.Fatal("empty keyspace accepted")
	}
	if _, err := NewKeyspace([]ID{"a"}, []string{"x"}); err == nil {
		t.Fatal("non-empty first start accepted")
	}
	if _, err := NewKeyspace([]ID{"a", "b"}, []string{"", ""}); err == nil {
		t.Fatal("non-increasing starts accepted")
	}
	if _, err := NewKeyspace([]ID{"a", "b"}, []string{""}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestUniformKeyspaceCoversAllKeys(t *testing.T) {
	ks := UniformKeyspace("sh", 16)
	if ks.Len() != 16 {
		t.Fatalf("Len = %d", ks.Len())
	}
	seen := make(map[ID]bool)
	for i := 0; i < 10000; i++ {
		s := ks.ShardFor(string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune(i)))
		seen[s] = true
	}
	if len(seen) < 12 {
		t.Fatalf("hash keyspace used only %d/16 shards", len(seen))
	}
}

func TestUniformKeyspacePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UniformKeyspace("x", 0)
}

func TestKeyspaceDeterministicProperty(t *testing.T) {
	ks := UniformKeyspace("sh", 64)
	if err := quick.Check(func(key string) bool {
		return ks.ShardFor(key) == ks.ShardFor(key)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeKeyspaceShardForMatchesRangeOf(t *testing.T) {
	ks, _ := NewKeyspace([]ID{"a", "b", "c"}, []string{"", "m", "t"})
	if err := quick.Check(func(key string) bool {
		s := ks.ShardFor(key)
		r, ok := ks.RangeOf(s)
		return ok && r.Contains(key)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeOf(t *testing.T) {
	ks, _ := NewKeyspace([]ID{"a", "b"}, []string{"", "m"})
	ra, ok := ks.RangeOf("a")
	if !ok || ra.Start != "" || ra.End != "m" {
		t.Fatalf("RangeOf(a) = %+v ok=%v", ra, ok)
	}
	rb, _ := ks.RangeOf("b")
	if rb.End != "" {
		t.Fatalf("RangeOf(b).End = %q, want unbounded", rb.End)
	}
	if _, ok := ks.RangeOf("zzz"); ok {
		t.Fatal("RangeOf unknown shard")
	}
	if _, ok := UniformKeyspace("x", 4).RangeOf("x0000"); ok {
		t.Fatal("hash keyspace has no ranges")
	}
}

func TestShardsForPrefix(t *testing.T) {
	ks, _ := NewKeyspace([]ID{"a", "b", "c"}, []string{"", "m", "t"})
	got := ks.ShardsForPrefix("mo")
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("ShardsForPrefix(mo) = %v", got)
	}
	got = ks.ShardsForPrefix("l")
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("ShardsForPrefix(l) = %v", got)
	}
	// Prefix spanning boundary: keys "m".."zzz" overlap b and c... use
	// empty prefix to mean everything.
	got = ks.ShardsForPrefix("")
	if len(got) != 3 {
		t.Fatalf("ShardsForPrefix('') = %v", got)
	}
	// Hash keyspaces lose locality: all shards returned.
	h := UniformKeyspace("x", 4)
	if len(h.ShardsForPrefix("abc")) != 4 {
		t.Fatal("hash keyspace should return all shards for a prefix")
	}
}

func TestShardsForPrefixConsistentWithShardFor(t *testing.T) {
	ks, _ := NewKeyspace([]ID{"a", "b", "c", "d"}, []string{"", "g", "p", "w"})
	if err := quick.Check(func(key string) bool {
		if key == "" {
			return true
		}
		owner := ks.ShardFor(key)
		for _, s := range ks.ShardsForPrefix(key) {
			if s == owner {
				return true
			}
		}
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixUpperBound(t *testing.T) {
	if got := prefixUpperBound("abc"); got != "abd" {
		t.Fatalf("prefixUpperBound(abc) = %q", got)
	}
	if got := prefixUpperBound("a\xff"); got != "b" {
		t.Fatalf("prefixUpperBound(a\\xff) = %q", got)
	}
	if got := prefixUpperBound("\xff\xff"); got != "" {
		t.Fatalf("prefixUpperBound(all-ff) = %q", got)
	}
}

func TestFormatAssignments(t *testing.T) {
	s := FormatAssignments([]Assignment{
		{Server: "srv1", Role: RolePrimary},
		{Server: "srv2", Role: RoleSecondary},
	})
	if !strings.Contains(s, "srv1(primary)") || !strings.Contains(s, "srv2(secondary)") {
		t.Fatalf("FormatAssignments = %q", s)
	}
}
