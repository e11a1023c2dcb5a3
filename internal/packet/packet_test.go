package packet

import (
	"strings"
	"testing"
	"unsafe"
)

// TestPacketSize pins the packet at 216 bytes. Arena.Bytes prices
// slabs by this size, so a change moves the arena_bytes and
// b_per_node columns of every sweeps/expected artifact and the
// sim_digest of the sweep-cold benchmark.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 216 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 216: this moves arena_bytes and b_per_node in sweeps/expected/*.jsonl", got)
	}
}

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k              Kind
		isReq, isRep   bool
		stringContains string
	}{
		{Transit, false, false, "transit"},
		{ReadRequest, true, false, "read-req"},
		{WriteRequest, true, false, "write-req"},
		{ReadReply, false, true, "read-reply"},
		{WriteAck, false, true, "write-ack"},
	}
	for _, c := range cases {
		if c.k.IsRequest() != c.isReq {
			t.Errorf("%v.IsRequest() = %v", c.k, c.k.IsRequest())
		}
		if c.k.IsReply() != c.isRep {
			t.Errorf("%v.IsReply() = %v", c.k, c.k.IsReply())
		}
		if !strings.Contains(c.k.String(), c.stringContains) {
			t.Errorf("%v.String() = %q", c.k, c.k.String())
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should print its numeric value")
	}
}

func TestNewDefaults(t *testing.T) {
	p := New(7, 1, 2, ReadRequest)
	if p.ID != 7 || p.Src != 1 || p.Dst != 2 || p.Kind != ReadRequest {
		t.Fatalf("New populated wrong fields: %+v", p)
	}
	if p.Arrived != -1 {
		t.Fatalf("new packet must not be marked arrived: %d", p.Arrived)
	}
	if p.Steps() != 0 {
		t.Fatalf("fresh packet Steps() = %d", p.Steps())
	}
}

func TestSteps(t *testing.T) {
	p := New(0, 0, 1, Transit)
	p.Hops = 5
	p.Delay = 3
	if p.Steps() != 8 {
		t.Fatalf("Steps = %d, want 8", p.Steps())
	}
}

func TestRecordPath(t *testing.T) {
	p := New(0, 4, 9, Transit)
	for _, node := range []int{4, 6, 9} {
		p.RecordPath(node)
	}
	if len(p.Path) != 3 || p.Path[0] != 4 || p.Path[2] != 9 {
		t.Fatalf("Path = %v", p.Path)
	}
}

func TestCombineTree(t *testing.T) {
	root := New(0, 0, 5, ReadRequest)
	a := New(1, 1, 5, ReadRequest)
	b := New(2, 2, 5, ReadRequest)
	c := New(3, 3, 5, ReadRequest)
	a.Combine(b, 1) // b merged into a first
	root.Combine(a, 2)
	root.Combine(c, 3)
	if got := root.TotalCombined(); got != 4 {
		t.Fatalf("TotalCombined = %d, want 4", got)
	}
	if len(root.Children) != 2 || root.CombinedAt[0] != 2 || root.CombinedAt[1] != 3 {
		t.Fatalf("combine records wrong: %v %v", root.Children, root.CombinedAt)
	}
}

func TestStringFormat(t *testing.T) {
	p := New(3, 1, 2, WriteRequest)
	p.Addr = 42
	s := p.String()
	for _, want := range []string{"id=3", "1->2", "addr=42", "write-req"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
