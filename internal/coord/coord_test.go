package coord

import (
	"errors"
	"testing"
)

func TestCreateGetSetDelete(t *testing.T) {
	s := NewStore()
	if err := s.Create("/a", []byte("one"), nil); err != nil {
		t.Fatal(err)
	}
	data, st, err := s.Get("/a")
	if err != nil || string(data) != "one" || st.Version != 0 {
		t.Fatalf("Get = %q v%d err=%v", data, st.Version, err)
	}
	st, err = s.Set("/a", []byte("two"), 0)
	if err != nil || st.Version != 1 {
		t.Fatalf("Set = v%d err=%v", st.Version, err)
	}
	data, _, _ = s.Get("/a")
	if string(data) != "two" {
		t.Fatalf("data = %q", data)
	}
	if err := s.Delete("/a", 1); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/a") {
		t.Fatal("node still exists after delete")
	}
}

func TestVersionCAS(t *testing.T) {
	s := NewStore()
	s.Create("/a", nil, nil)
	if _, err := s.Set("/a", []byte("x"), 5); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("Set stale = %v, want ErrBadVersion", err)
	}
	if _, err := s.Set("/a", []byte("x"), -1); err != nil {
		t.Fatalf("unconditional Set = %v", err)
	}
	if err := s.Delete("/a", 0); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("Delete stale = %v, want ErrBadVersion", err)
	}
}

func TestCreateErrors(t *testing.T) {
	s := NewStore()
	if err := s.Create("/a/b", nil, nil); !errors.Is(err, ErrNoNode) {
		t.Fatalf("orphan create = %v, want ErrNoNode", err)
	}
	s.Create("/a", nil, nil)
	if err := s.Create("/a", nil, nil); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("dup create = %v, want ErrNodeExists", err)
	}
	for _, bad := range []string{"", "a", "/a/", "//", "/a//b"} {
		if err := s.Create(bad, nil, nil); !errors.Is(err, ErrBadPath) {
			t.Errorf("Create(%q) = %v, want ErrBadPath", bad, err)
		}
	}
}

func TestCreateAll(t *testing.T) {
	s := NewStore()
	if err := s.CreateAll("/a/b/c", []byte("deep"), nil); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.Get("/a/b/c")
	if err != nil || string(data) != "deep" {
		t.Fatalf("Get = %q err=%v", data, err)
	}
	// Idempotent on intermediates; final node must still collide.
	if err := s.CreateAll("/a/b/d", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateAll("/a/b/c", nil, nil); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("CreateAll dup = %v", err)
	}
}

func TestDeleteNonEmpty(t *testing.T) {
	s := NewStore()
	s.CreateAll("/a/b", nil, nil)
	if err := s.Delete("/a", -1); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Delete parent = %v, want ErrNotEmpty", err)
	}
}

func TestChildren(t *testing.T) {
	s := NewStore()
	s.Create("/a", nil, nil)
	s.Create("/a/z", nil, nil)
	s.Create("/a/b", nil, nil)
	kids, err := s.Children("/a")
	if err != nil || len(kids) != 2 || kids[0] != "b" || kids[1] != "z" {
		t.Fatalf("Children = %v err=%v", kids, err)
	}
	root, err := s.Children("/")
	if err != nil || len(root) != 1 || root[0] != "a" {
		t.Fatalf("root Children = %v err=%v", root, err)
	}
}

func TestEphemeralDeletedOnSessionClose(t *testing.T) {
	s := NewStore()
	s.Create("/servers", nil, nil)
	sess := s.NewSession()
	if err := s.Create("/servers/s1", []byte("alive"), sess); err != nil {
		t.Fatal(err)
	}
	_, st, _ := s.Get("/servers/s1")
	if !st.Ephemeral {
		t.Fatal("node not marked ephemeral")
	}
	sess.Expire()
	if s.Exists("/servers/s1") {
		t.Fatal("ephemeral survived session close")
	}
	if !sess.Closed() {
		t.Fatal("session not marked closed")
	}
	// Double close is a no-op.
	sess.Expire()
}

func TestEphemeralCreateOnClosedSession(t *testing.T) {
	s := NewStore()
	sess := s.NewSession()
	sess.Expire()
	if err := s.Create("/x", nil, sess); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Create on closed session = %v", err)
	}
}

func TestExplicitDeleteDetachesFromSession(t *testing.T) {
	s := NewStore()
	sess := s.NewSession()
	s.Create("/e", nil, sess)
	s.Delete("/e", -1)
	s.Create("/e", nil, nil) // recreate persistent
	sess.Expire()
	if !s.Exists("/e") {
		t.Fatal("session close deleted a node it no longer owns")
	}
}

func TestChildWatchFiresOnCreateAndDelete(t *testing.T) {
	s := NewStore()
	s.Create("/p", nil, nil)
	var events []Event
	rearm := func() {
		s.WatchChildren("/p", func(e Event) { events = append(events, e) })
	}
	rearm()
	s.Create("/p/c", nil, nil)
	if len(events) != 1 || events[0].Type != EventChildrenChanged {
		t.Fatalf("events after create = %v", events)
	}
	rearm()
	s.Delete("/p/c", -1)
	if len(events) != 2 || events[1].Type != EventChildrenChanged {
		t.Fatalf("events after delete = %v", events)
	}
}

func TestChildWatchFiresOnEphemeralExpiry(t *testing.T) {
	s := NewStore()
	s.Create("/servers", nil, nil)
	sess := s.NewSession()
	s.Create("/servers/s1", nil, sess)
	fired := 0
	s.WatchChildren("/servers", func(Event) { fired++ })
	sess.Expire()
	if fired != 1 {
		t.Fatalf("child watch fired %d times, want 1", fired)
	}
}

func TestWatchCallbackCanReenterStore(t *testing.T) {
	s := NewStore()
	s.Create("/w", nil, nil)
	reread := ""
	s.WatchChildren("/w", func(Event) {
		data, _, _ := s.Get("/w/c")
		reread = string(data)
	})
	s.Create("/w/c", []byte("new"), nil)
	if reread != "new" {
		t.Fatalf("re-entrant read = %q", reread)
	}
}

func TestWatchErrors(t *testing.T) {
	s := NewStore()
	if err := s.WatchChildren("/missing", func(Event) {}); !errors.Is(err, ErrNoNode) {
		t.Fatalf("WatchChildren missing = %v", err)
	}
	s.Create("/x", nil, nil)
	if err := s.WatchChildren("/x", nil); err == nil {
		t.Fatal("nil child watcher accepted")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Create("/c", []byte("abc"), nil)
	data, _, _ := s.Get("/c")
	data[0] = 'X'
	again, _, _ := s.Get("/c")
	if string(again) != "abc" {
		t.Fatal("Get exposed internal buffer")
	}
}

// TestSetCopiesTheCallersBytes: Set copies the data into the node's own
// bytes, so a caller that reuses its buffer (the orchestrator encodes every
// assignment node into one) never changes what the node holds, and a shorter
// write followed by a longer one each read back exactly.
func TestSetCopiesTheCallersBytes(t *testing.T) {
	s := NewStore()
	s.Create("/n", []byte("first"), nil)
	buf := []byte("second")
	if _, err := s.Set("/n", buf, -1); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXX")
	if data, _, _ := s.Get("/n"); string(data) != "second" {
		t.Fatalf("after the caller overwrote its buffer, Get = %q, want %q", data, "second")
	}
	for _, want := range []string{"ab", "a much longer payload than before", "", "xyz"} {
		if _, err := s.Set("/n", []byte(want), -1); err != nil {
			t.Fatal(err)
		}
		if data, _, _ := s.Get("/n"); string(data) != want {
			t.Fatalf("Set(%q) then Get = %q", want, data)
		}
	}
}

// TestNodeWritesAndLookupsAllocateNothing pins the two store calls every
// assignment-node write makes: Exists on a node that is there, and Set on it
// with data no longer than its last write.
func TestNodeWritesAndLookupsAllocateNothing(t *testing.T) {
	s := NewStore()
	if err := s.CreateAll("/app/assign/srv1", []byte("s001 p\ns002 s\n"), nil); err != nil {
		t.Fatal(err)
	}
	data := []byte("s001 s\n")
	if n := testing.AllocsPerRun(100, func() {
		if !s.Exists("/app/assign/srv1") {
			t.Fatal("the node is gone")
		}
	}); n != 0 {
		t.Errorf("Exists allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Set("/app/assign/srv1", data, -1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Set with a shorter payload allocates %v times, want 0", n)
	}
}

// TestLookupErrors: a path is validated whole before it is walked, so a
// malformed one is ErrBadPath even where its first name is missing, and a
// missing node is ErrNoNode; every read and write reports the same error.
func TestLookupErrors(t *testing.T) {
	s := NewStore()
	s.Create("/a", nil, nil)
	for _, c := range []struct{ path, want string }{
		{"a", `coord: malformed path: "a"`},
		{"/a/", `coord: malformed path: "/a/"`},
		{"/a//b", `coord: malformed path: "/a//b"`},
		{"/missing//x", `coord: malformed path: "/missing//x"`},
		{"/a/missing", `coord: node does not exist: "/a/missing"`},
	} {
		_, _, getErr := s.Get(c.path)
		_, setErr := s.Set(c.path, nil, -1)
		_, kidsErr := s.Children(c.path)
		for _, err := range []error{getErr, setErr, kidsErr, s.Delete(c.path, -1)} {
			if err == nil || err.Error() != c.want {
				t.Errorf("%q: %v, want %s", c.path, err, c.want)
			}
		}
		if s.Exists(c.path) {
			t.Errorf("Exists(%q) = true", c.path)
		}
	}
}

func TestMultipleEphemeralsOneSession(t *testing.T) {
	s := NewStore()
	s.Create("/servers", nil, nil)
	sess := s.NewSession()
	for _, p := range []string{"/servers/a", "/servers/b", "/servers/c"} {
		if err := s.Create(p, nil, sess); err != nil {
			t.Fatal(err)
		}
	}
	sess.Expire()
	kids, _ := s.Children("/servers")
	if len(kids) != 0 {
		t.Fatalf("ephemerals remain: %v", kids)
	}
}

// TestSessionIDsUnique: a session is known by its fencing generation, which
// no other session shares and which rises in opening order.
func TestSessionIDsUnique(t *testing.T) {
	s := NewStore()
	a, b := s.NewSession(), s.NewSession()
	if a.Generation() >= b.Generation() {
		t.Fatalf("session generations %d then %d, want rising", a.Generation(), b.Generation())
	}
}

func TestEventTypeString(t *testing.T) {
	if EventDeleted.String() != "deleted" || EventChildrenChanged.String() != "children-changed" {
		t.Fatal("event names wrong")
	}
	if EventType(42).String() != "event(42)" {
		t.Fatal("unknown event name wrong")
	}
}
