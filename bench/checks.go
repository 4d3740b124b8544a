package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// check verifies the window's outputs; every string it returns fails the run.
func (r *run) check() []string {
	var bad []string
	if !r.placementWhole() {
		bad = append(bad, "placement is not whole at the horizon: "+r.d.Orch.Stats())
	}
	// The drain is longer than the worst retry chain, so nothing may still
	// be in flight: every attempted request has reported exactly once.
	if inFlight := r.attempted - r.ok - r.failed; inFlight != 0 {
		bad = append(bad, fmt.Sprintf("attempted %d != ok %d + failed %d (in flight %d after the drain)",
			r.attempted, r.ok, r.failed, inFlight))
	}
	if r.attempted == 0 {
		bad = append(bad, "no request was attempted")
	}
	if a := r.d.Auditor; a != nil && a.ViolationCount() != 0 {
		bad = append(bad, fmt.Sprintf("auditor: %d violations, first: %+v", a.ViolationCount(), a.Violations()[0].Invariant))
	}
	return bad
}

// digest hashes what the simulation did: events dispatched in the window,
// request outcomes and latencies, utilisation samples, the final assignment
// and the map version. Equal digests mean equal simulated metrics; every
// window of one seed must have the same one, whatever rides along.
func (r *run) digest(events uint64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(events)
	put(uint64(r.attempted))
	put(uint64(r.ok))
	put(uint64(r.failed))
	put(uint64(r.sloOK))
	put(uint64(r.attempts))
	put(uint64(r.hops))
	for _, v := range r.latMS {
		put(math.Float64bits(v))
	}
	for _, v := range r.utils {
		put(math.Float64bits(v))
	}
	m := r.d.Orch.AssignmentSnapshot()
	put(uint64(m.Version))
	for _, id := range r.ids {
		h.Write([]byte(id))
		for _, a := range m.Replicas(id) {
			h.Write([]byte(a.Server))
			put(uint64(a.Role))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
