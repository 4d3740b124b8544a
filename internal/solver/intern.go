package solver

import "fmt"

// domainTable interns (bucket, scope) -> domain strings into dense int IDs
// so the solver's hot loop indexes flat slices instead of hashing strings.
// The spread and affinities name the scopes; each is interned on demand the
// first time one references it and kept with the Problem, so a problem solved
// again with more goals (the allocator's goal stages) interns each scope once.
type domainTable struct {
	scopes map[string]*scopeDomains
}

// scopeDomains is the interned view of one scope: every bucket's domain ID.
type scopeDomains struct {
	// bucketDom[b] is the dense domain ID of bucket b at this scope.
	bucketDom []int32
	// n is the number of domains.
	n int
	// index maps a domain string to its ID.
	index map[string]int32
}

// domains returns the interned view of scope, building it on first use. A
// bucket lacking a Props entry for the scope panics.
func (t *domainTable) domains(p *Problem, scope string) *scopeDomains {
	if sd, ok := t.scopes[scope]; ok {
		if len(sd.bucketDom) != len(p.Buckets) {
			panic(fmt.Sprintf("solver: domain table built for %d buckets used with %d", len(sd.bucketDom), len(p.Buckets)))
		}
		return sd
	}
	sd := &scopeDomains{
		bucketDom: make([]int32, len(p.Buckets)),
		index:     make(map[string]int32),
	}
	for b := range p.Buckets {
		name, ok := p.Buckets[b].Props[scope]
		if !ok {
			panic(fmt.Sprintf("solver: bucket %q lacks scope %q", p.Buckets[b].Name, scope))
		}
		id, ok := sd.index[name]
		if !ok {
			id = int32(sd.n)
			sd.index[name] = id
			sd.n++
		}
		sd.bucketDom[b] = id
	}
	t.scopes[scope] = sd
	return sd
}

// domainTable returns the problem's interning table, creating an empty one
// on first use. Scope entries are populated lazily by newState.
func (p *Problem) domainTable() *domainTable {
	if p.domTable == nil {
		p.domTable = &domainTable{scopes: make(map[string]*scopeDomains)}
	}
	return p.domTable
}
