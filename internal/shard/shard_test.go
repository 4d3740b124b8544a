package shard

import (
	"strings"
	"testing"
	"testing/quick"
)

// newMap returns an empty shard map for app.
func newMap(app AppID) *Map {
	return &Map{App: app, Entries: map[ID][]Assignment{}}
}

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
	m := newMap("app")
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
	m := newMap("app")
	m.Entries["s1"] = []Assignment{{Server: "a", Role: RolePrimary}}
	c := m.Clone()
	c.Entries["s1"][0].Server = "x"
	c.Entries["s2"] = []Assignment{{Server: "y"}}
	if m.Entries["s1"][0].Server != "a" || len(m.Entries) != 1 {
		t.Fatal("Clone shares state")
	}
}

func TestMapServers(t *testing.T) {
	m := newMap("app")
	m.Entries["s1"] = []Assignment{{Server: "b", Role: RolePrimary}, {Server: "a", Role: RoleSecondary}}
	m.Entries["s2"] = []Assignment{{Server: "a", Role: RolePrimary}}
	servers := m.Servers()
	if len(servers) != 2 || servers[0] != "a" || servers[1] != "b" {
		t.Fatalf("Servers = %v", servers)
	}
}

func TestMapValidate(t *testing.T) {
	m := newMap("app")
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
		if got := ks.At(ks.Locate(key)); got != want {
			t.Errorf("At(Locate(%q)) = %s, want %s", key, got, want)
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

func TestKeyspaceDeterministicProperty(t *testing.T) {
	ks, err := NewKeyspace([]ID{"s0", "s1", "s2", "s3"}, []string{"", "g", "n", "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(key string) bool {
		return ks.At(ks.Locate(key)) == ks.At(ks.Locate(key))
	}, nil); err != nil {
		t.Fatal(err)
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
