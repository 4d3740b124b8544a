package solver

// domains numbers the buckets' domains (Bucket.Domain) densely, in order of
// first appearance, so the hot loop indexes flat slices instead of hashing
// strings. The spread, the affinities and Solve's target draw all read this one
// numbering; it is kept with the Problem and numbered again, into its own
// buffers, when buckets were added since or ClearBuckets restated them.
type domains struct {
	// of[b] is bucket b's domain number.
	of []int32
	// index maps a domain to its number.
	index map[string]int32
	// buckets[d] are domain d's buckets, in bucket order.
	buckets [][]BucketID
	// stale is whether ClearBuckets restated the buckets since the numbering.
	stale bool
}

// domains returns the problem's numbering of its buckets' domains.
func (p *Problem) domains() *domains {
	d := p.dom
	if d == nil {
		d = &domains{index: make(map[string]int32)}
		p.dom = d
	} else if !d.stale && len(d.of) == len(p.Buckets) {
		return d
	}
	d.stale = false
	d.of = resize(d.of, len(p.Buckets))
	clear(d.index)
	d.buckets = d.buckets[:0]
	for b := range p.Buckets {
		id, ok := d.index[p.Buckets[b].Domain]
		if !ok {
			id = int32(len(d.buckets))
			d.index[p.Buckets[b].Domain] = id
			d.buckets = grow(d.buckets)
			d.buckets[id] = d.buckets[id][:0]
		}
		d.of[b] = id
		d.buckets[id] = append(d.buckets[id], BucketID(b))
	}
	return d
}
