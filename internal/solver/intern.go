package solver

// domains numbers the buckets' domains (Bucket.Domain) densely, in order of
// first appearance, so the hot loop indexes flat slices instead of hashing
// strings. The spread, the affinities and GroupedSampler all read this one
// numbering; it is kept with the Problem and built again only when buckets
// were added since.
type domains struct {
	// of[b] is bucket b's domain number.
	of []int32
	// index maps a domain to its number.
	index map[string]int32
	// buckets[d] are domain d's buckets, in bucket order.
	buckets [][]BucketID
}

// domains returns the problem's numbering of its buckets' domains.
func (p *Problem) domains() *domains {
	if d := p.dom; d != nil && len(d.of) == len(p.Buckets) {
		return d
	}
	d := &domains{of: make([]int32, len(p.Buckets)), index: make(map[string]int32)}
	for b := range p.Buckets {
		id, ok := d.index[p.Buckets[b].Domain]
		if !ok {
			id = int32(len(d.buckets))
			d.index[p.Buckets[b].Domain] = id
			d.buckets = append(d.buckets, nil)
		}
		d.of[b] = id
		d.buckets[id] = append(d.buckets[id], BucketID(b))
	}
	p.dom = d
	return d
}
