package mem

import (
	"testing"
	"testing/quick"
)

func TestRequestLine(t *testing.T) {
	r := Request{Addr: 0x1234_0000 + 128}
	if r.Line() != (0x1234_0000+128)/64 {
		t.Errorf("Line = %d", r.Line())
	}
}

func TestCompleteOnce(t *testing.T) {
	n := 0
	r := &Request{OnDone: func(*Request) { n++ }}
	r.Complete()
	if n != 1 || !r.Completed() {
		t.Fatalf("n=%d completed=%v", n, r.Completed())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Complete did not panic")
		}
	}()
	r.Complete()
}

// TestCompleteAcrossRecycle pins the double-completion guard through the
// request pool: completing a released request panics, the next tenant
// of the same record completes exactly once, and a second completion of
// that tenant panics too.
func TestCompleteAcrossRecycle(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	var p RequestPool
	n := 0
	r := p.Get()
	r.ID, r.OnDone = 1, func(*Request) { n++ }
	r.Complete()
	r.Release()
	mustPanic("Complete after Release", r.Complete)
	mustPanic("second Release", r.Release)
	if n != 1 {
		t.Fatalf("OnDone ran %d times, want 1", n)
	}

	r2 := p.Get()
	if r2 != r {
		t.Fatal("pool did not recycle the released request")
	}
	if r2.Completed() || r2.OnDone != nil || r2.ID != 0 {
		t.Fatalf("recycled request not reset: completed=%v id=%d", r2.Completed(), r2.ID)
	}
	r2.ID, r2.OnDone = 2, func(*Request) { n++ }
	r2.Complete()
	if n != 2 {
		t.Fatalf("next tenant's OnDone ran %d times in total, want 2", n)
	}
	mustPanic("second Complete of the next tenant", r2.Complete)
}

// TestReleaseUnpooledNoop: a request built directly is not recycled, so
// Release leaves it intact.
func TestReleaseUnpooledNoop(t *testing.T) {
	r := &Request{ID: 3, Addr: 64}
	r.Complete()
	r.Release()
	r.Release()
	if r.Addr != 64 || !r.Completed() {
		t.Fatalf("unpooled release changed the request: %+v", r)
	}
}

func TestCompleteNilCallback(t *testing.T) {
	r := &Request{}
	r.Complete() // must not panic
	if !r.Completed() {
		t.Error("Completed = false")
	}
}

func TestClassifyOutcome(t *testing.T) {
	cases := []struct {
		kind        Kind
		hit, dirty  bool
		want        Outcome
		read, isHit bool
	}{
		{Read, true, false, ReadHit, true, true},
		{Read, true, true, ReadHit, true, true}, // hit to dirty is still a read hit
		{Read, false, false, ReadMissClean, true, false},
		{Read, false, true, ReadMissDirty, true, false},
		{Write, true, false, WriteHit, false, true},
		{Write, true, true, WriteHit, false, true},
		{Write, false, false, WriteMissClean, false, false},
		{Write, false, true, WriteMissDirty, false, false},
	}
	for _, c := range cases {
		got := ClassifyOutcome(c.kind, c.hit, c.dirty)
		if got != c.want {
			t.Errorf("Classify(%v,%v,%v) = %v, want %v", c.kind, c.hit, c.dirty, got, c.want)
		}
		if got.IsRead() != c.read {
			t.Errorf("%v.IsRead() = %v", got, got.IsRead())
		}
		if got.IsHit() != c.isHit {
			t.Errorf("%v.IsHit() = %v", got, got.IsHit())
		}
	}
	if !ReadMissDirty.IsMissDirty() || !WriteMissDirty.IsMissDirty() || ReadMissClean.IsMissDirty() {
		t.Error("IsMissDirty misclassifies")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o := ReadHit; o < Outcome(NumOutcomes); o++ {
		if o.String() == "" {
			t.Errorf("empty string for %d", o)
		}
	}
	if Kind(Read).String() != "read" || Kind(Write).String() != "write" {
		t.Error("Kind strings wrong")
	}
}

func testMap() AddrMap { return AddrMap{Channels: 8, Banks: 16, Columns: 32, Rows: 64} }

func TestAddrMapValidate(t *testing.T) {
	if err := testMap().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testMap()
	bad.Rows = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero rows validated")
	}
}

func TestAddrMapSizes(t *testing.T) {
	m := testMap()
	wantLines := uint64(8 * 16 * 32 * 64)
	if m.Lines() != wantLines {
		t.Errorf("Lines = %d, want %d", m.Lines(), wantLines)
	}
	if m.Bytes() != wantLines*64 {
		t.Errorf("Bytes = %d", m.Bytes())
	}
}

func TestAddrMapChannelInterleave(t *testing.T) {
	// Consecutive lines must hit consecutive channels (Ch is the
	// least-significant field of RoCoRaBaCh).
	m := testMap()
	for i := uint64(0); i < 16; i++ {
		if got := m.Decode(i).Channel; got != int(i%8) {
			t.Errorf("line %d channel = %d, want %d", i, got, i%8)
		}
	}
}

func TestAddrMapRoundTrip(t *testing.T) {
	m := testMap()
	f := func(line uint64) bool {
		line %= m.Lines()
		c := m.Decode(line)
		if c.Channel < 0 || c.Channel >= m.Channels || c.Bank < 0 || c.Bank >= m.Banks ||
			c.Column < 0 || c.Column >= m.Columns || c.Row < 0 || c.Row >= m.Rows {
			return false
		}
		return m.Encode(c) == line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAddrMapBijective(t *testing.T) {
	// Small exhaustive check: no two in-range lines decode identically.
	m := AddrMap{Channels: 2, Banks: 4, Columns: 4, Rows: 4}
	seen := map[Coord]uint64{}
	for line := uint64(0); line < m.Lines(); line++ {
		c := m.Decode(line)
		if prev, dup := seen[c]; dup {
			t.Fatalf("lines %d and %d both decode to %+v", prev, line, c)
		}
		seen[c] = line
	}
}
