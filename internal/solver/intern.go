package solver

import "fmt"

// domainTable interns (bucket, scope) -> domain strings into dense int IDs
// so the solver's hot loop indexes flat slices instead of hashing strings.
// Conflicts, exclusions and affinities name the scopes; each is interned on
// demand the first time one references it and kept with the Problem, so a
// problem solved again with more goals (the allocator's goal stages) interns
// each scope once.
type domainTable struct {
	scopes map[string]*scopeDomains
}

// scopeDomains is the interned view of one scope: every bucket's domain ID
// and the reverse ID -> name mapping.
type scopeDomains struct {
	// bucketDom[b] is the dense domain ID of bucket b at this scope.
	bucketDom []int32
	// names[d] is the domain string of ID d.
	names []string
	// index maps a domain string back to its ID.
	index map[string]int32
}

// domains returns the interned view of scope, building it on first use.
// Buckets lacking a Props entry for the scope panic with the same message as
// the string-keyed path did.
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
		name := p.domainOf(BucketID(b), scope)
		id, ok := sd.index[name]
		if !ok {
			id = int32(len(sd.names))
			sd.index[name] = id
			sd.names = append(sd.names, name)
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
