// Package mem defines the memory-system primitives shared by every model
// in the repository: requests, access kinds, cache-access outcomes, and
// the DRAM address mapping.
package mem

import (
	"fmt"

	"tdram/internal/pooldebug"
	"tdram/internal/sim"
)

// LineSize is the cache-line (and memory access) granularity in bytes.
// CPUs from Intel and AMD operate on 64 B lines; the modeled devices pair
// banks to provide 64 B access granularity (paper §III-C1).
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Kind distinguishes reads from writes at the memory-demand level.
type Kind uint8

const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Request is one 64 B memory demand travelling from the LLC towards the
// DRAM cache and, on a miss, the backing store.
type Request struct {
	ID   uint64
	Addr uint64 // byte address; always line-aligned by the time it reaches a controller
	Kind Kind
	Core int // originating core, used by stats and predictors

	// Arrive is set by each controller when the request enters its
	// queues, and is the reference point for queueing-delay statistics.
	Arrive sim.Tick

	// TagDone is set when the hit/miss result for this demand is known at
	// the controller (the paper's "tag check latency" endpoint).
	TagDone sim.Tick

	// OnDone, when non-nil, is invoked exactly once when the demand is
	// fully serviced (data returned for reads; write accepted and ordered
	// for writes).
	OnDone func(*Request)

	// J, when non-nil, is the request's journey ledger: per-phase time
	// attribution recorded by the controller and finished (classified,
	// aggregated, pooled) by the observer. Nil whenever journey tracking
	// is disabled — every touch point nil-checks it, hookguard-enforced.
	J *Journey

	// pool is the RequestPool the request was drawn from (nil for a
	// request built directly, which is never recycled); next links it
	// into that pool's freelist while released.
	pool *RequestPool
	next *Request

	done  bool
	freed bool // released to its pool; cleared when the pool reissues it
}

// Line reports the line address (byte address >> LineShift).
func (r *Request) Line() uint64 { return r.Addr >> LineShift }

// Complete invokes OnDone exactly once. Further calls panic, as does
// completing a request already released to its pool: a demand being
// completed twice means a controller model has a double-response bug,
// which must not be masked — least of all by landing on the record's
// next tenant.
func (r *Request) Complete() {
	if r.freed {
		panic(fmt.Sprintf("mem: request %d completed after release", r.ID))
	}
	if r.done {
		panic(fmt.Sprintf("mem: request %d completed twice", r.ID))
	}
	r.done = true
	if r.OnDone != nil {
		r.OnDone(r)
	}
}

// Completed reports whether Complete has run.
func (r *Request) Completed() bool { return r.done }

// Release returns a pooled request to its pool once its last user is
// done with it (see DESIGN.md, "Record ownership"); it is a no-op for a
// request not drawn from a pool. Releasing twice panics. Under the
// pooldebug build tag the released record is poisoned so a stale use
// misroutes or panics instead of reading plausible old fields.
func (r *Request) Release() {
	p := r.pool
	if p == nil {
		return
	}
	if r.freed {
		panic(fmt.Sprintf("mem: request %d released twice", r.ID))
	}
	r.freed = true
	r.OnDone, r.J = nil, nil
	if pooldebug.On {
		r.Addr, r.Core = ^uint64(0), -1
	}
	r.next = p.free
	p.free = r
}

// RequestPool recycles requests through an intrusive freelist. The
// issuer owns a request from Get until the controller accepts it; from
// then on the controller owns it and releases it after its last use.
// Once the pool is warm to the in-flight high-water mark, Get allocates
// nothing.
type RequestPool struct {
	free *Request
}

// Get pops a zeroed request (allocating only when the pool is empty).
func (p *RequestPool) Get() *Request {
	r := p.free
	if r == nil {
		return &Request{pool: p}
	}
	p.free = r.next
	*r = Request{pool: p}
	return r
}

// Outcome classifies a DRAM-cache access, following the paper's Table II.
type Outcome uint8

const (
	ReadHit       Outcome = iota
	ReadMissClean         // includes reads to invalid lines
	ReadMissDirty
	WriteHit
	WriteMissClean // includes writes to invalid lines
	WriteMissDirty
	numOutcomes
)

// NumOutcomes is the number of distinct Outcome values.
const NumOutcomes = int(numOutcomes)

func (o Outcome) String() string {
	switch o {
	case ReadHit:
		return "read-hit"
	case ReadMissClean:
		return "read-miss-clean"
	case ReadMissDirty:
		return "read-miss-dirty"
	case WriteHit:
		return "write-hit"
	case WriteMissClean:
		return "write-miss-clean"
	case WriteMissDirty:
		return "write-miss-dirty"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// IsRead reports whether the outcome belongs to a read demand.
func (o Outcome) IsRead() bool { return o <= ReadMissDirty }

// IsHit reports whether the outcome is a cache hit.
func (o Outcome) IsHit() bool { return o == ReadHit || o == WriteHit }

// IsMissDirty reports whether the outcome displaces dirty data.
func (o Outcome) IsMissDirty() bool { return o == ReadMissDirty || o == WriteMissDirty }

// ClassifyOutcome maps (kind, hit, dirty-victim) to an Outcome.
func ClassifyOutcome(kind Kind, hit, victimDirty bool) Outcome {
	switch {
	case kind == Read && hit:
		return ReadHit
	case kind == Read && victimDirty:
		return ReadMissDirty
	case kind == Read:
		return ReadMissClean
	case hit:
		return WriteHit
	case victimDirty:
		return WriteMissDirty
	default:
		return WriteMissClean
	}
}
