package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// locateReference is Locate as it was computed before start keys were
// packed: sort.Search over the start strings.
func locateReference(k *Keyspace, key string) int {
	return sort.Search(len(k.starts), func(i int) bool { return k.starts[i] > key }) - 1
}

// keyspaceOf builds a range keyspace over the given start keys (plus the
// mandatory ""), sorted and de-duplicated.
func keyspaceOf(t *testing.T, starts []string) *Keyspace {
	t.Helper()
	starts = append([]string{""}, starts...)
	sort.Strings(starts)
	uniq := starts[:1]
	for _, s := range starts[1:] {
		if s != uniq[len(uniq)-1] {
			uniq = append(uniq, s)
		}
	}
	ids := make([]ID, len(uniq))
	for i := range ids {
		ids[i] = ID("s" + string(rune('A'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676)))
	}
	ks, err := NewKeyspace(ids, uniq)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func checkLocate(t *testing.T, ks *Keyspace, key string) {
	t.Helper()
	want := locateReference(ks, key)
	if got := ks.Locate(key); got != want {
		t.Fatalf("Locate(%q) = %d, sort.Search reference %d (starts %q)", key, got, want, ks.starts)
	}
}

// TestLocateMatchesSortSearchAdversarial: start keys chosen to sit on every
// edge of the packed-prefix comparison — shorter than, exactly and longer than
// 8 bytes; pairs that agree on the first 8 bytes and differ after; keys that
// differ only by trailing 0x00 bytes, which pack alike; 0xff bytes — probed
// with every start itself, its neighbours just below and above, and keys below
// every non-empty start.
func TestLocateMatchesSortSearchAdversarial(t *testing.T) {
	starts := []string{
		"\x00", "\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x00\x00",
		"\x00\x01", "a", "a\x00", "a\x00\x00b", "ab", "abcdefg", "abcdefg\x00", "abcdefgh", "abcdefgh\x00",
		"abcdefgh\x00\x00", "abcdefgha", "abcdefghz", "abcdefghzz", "abcdefgi", "abcdefh",
		"m", "s00010", "s00010/key", "s0001000", "s00010000", "s00010001", "s00011",
		"\xff", "\xff\x00", "\xff\xff", "\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff",
		"\xff\xff\xff\xff\xff\xff\xff\xff\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
	}
	ks := keyspaceOf(t, starts)
	for _, s := range ks.starts {
		checkLocate(t, ks, s) // key == start
		checkLocate(t, ks, s+"\x00")
		checkLocate(t, ks, s+"\xff")
		checkLocate(t, ks, s+"tail-longer-than-eight-bytes")
		if n := len(s); n > 0 {
			checkLocate(t, ks, s[:n-1])
			if s[n-1] > 0 {
				checkLocate(t, ks, s[:n-1]+string(s[n-1]-1)+"\xff\xff")
			}
		}
	}
	// Below every non-empty start only "" is: the first shard owns it.
	if ks.Locate("") != 0 {
		t.Fatalf("Locate(\"\") = %d", ks.Locate(""))
	}
	// A keyspace whose smallest non-empty start is well above "".
	high := keyspaceOf(t, []string{"m", "mmmmmmmmm", "z"})
	for _, key := range []string{"", "\x00", "a", "lzzzzzzzzzzz", "l\xff"} {
		checkLocate(t, high, key)
		if high.Locate(key) != 0 {
			t.Fatalf("Locate(%q) = %d below every non-empty start", key, high.Locate(key))
		}
	}
}

// TestLocateMatchesSortSearchRandom: random keyspaces over a three-letter
// alphabet (so that long common prefixes and exact hits are the rule) and
// over raw bytes.
func TestLocateMatchesSortSearchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	word := func(alphabet string, maxLen int) string {
		b := make([]byte, rng.Intn(maxLen+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	raw := make([]byte, 256)
	for i := range raw {
		raw[i] = byte(i)
	}
	for _, alphabet := range []string{"ab\x00", "\x00\xff", "s0123456789/", string(raw)} {
		for trial := 0; trial < 60; trial++ {
			starts := make([]string, 1+rng.Intn(200))
			for i := range starts {
				starts[i] = word(alphabet, 12)
			}
			ks := keyspaceOf(t, starts)
			for probe := 0; probe < 400; probe++ {
				checkLocate(t, ks, word(alphabet, 14))
			}
			for _, s := range ks.starts {
				checkLocate(t, ks, s)
			}
		}
	}
}

// TestLocateMatchesSortSearchAtBlockEdges: random keyspaces whose start
// counts sit on and around the index's block and level boundaries (16 per
// block), probed with every start, its neighbours, random keys and all-0xff
// keys, whose packed prefix equals the levels' padding. Half the keyspaces
// end in starts that pack to all-ones themselves.
func TestLocateMatchesSortSearchAtBlockEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	word := func() string {
		b := make([]byte, rng.Intn(11))
		for i := range b {
			switch rng.Intn(4) {
			case 0:
				b[i] = 0
			case 1:
				b[i] = 0xff
			default:
				b[i] = byte(rng.Intn(256))
			}
		}
		return string(b)
	}
	ones := "\xff\xff\xff\xff\xff\xff\xff\xff"
	for _, n := range []int{1, 2, 15, 16, 17, 255, 256, 257, 4097} {
		for variant := 0; variant < 2; variant++ {
			set := map[string]bool{"": true}
			if variant == 1 && n >= 3 {
				set[ones] = true
				set[ones+"\x00"] = true
			}
			for len(set) < n {
				set[word()] = true
			}
			starts := make([]string, 0, n)
			for s := range set {
				starts = append(starts, s)
			}
			ks := keyspaceOf(t, starts)
			if ks.Len() != n {
				t.Fatalf("keyspace of %d starts has %d", n, ks.Len())
			}
			for _, s := range ks.starts {
				checkLocate(t, ks, s)
				checkLocate(t, ks, s+"\x00")
				checkLocate(t, ks, s+"\xff")
				if m := len(s); m > 0 {
					checkLocate(t, ks, s[:m-1])
					if s[m-1] > 0 {
						checkLocate(t, ks, s[:m-1]+string(s[m-1]-1)+"\xff")
					}
				}
			}
			for _, key := range []string{ones[:7], ones, ones + "\x00", ones + "\xff", ones + ones} {
				checkLocate(t, ks, key)
			}
			for probe := 0; probe < 1000; probe++ {
				checkLocate(t, ks, word())
			}
		}
	}
}

// BenchmarkKeyspaceLocate locates random keys of a range keyspace of 3k and
// 100k shards ("s%06d" starts, keys "s%06d/key"), the keyspace a client
// searches on every request.
func BenchmarkKeyspaceLocate(b *testing.B) {
	for _, n := range []int{3_000, 100_000} {
		b.Run(fmt.Sprintf("shards=%dk", n/1000), func(b *testing.B) {
			ids := make([]ID, n)
			starts := make([]string, n)
			for i := range ids {
				ids[i] = ID(fmt.Sprintf("s%06d", i))
				if i > 0 {
					starts[i] = string(ids[i])
				}
			}
			ks, err := NewKeyspace(ids, starts)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			keys := make([]string, 1<<12)
			for i := range keys {
				keys[i] = fmt.Sprintf("s%06d/key", rng.Intn(n))
			}
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += ks.Locate(keys[i&(len(keys)-1)])
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}
