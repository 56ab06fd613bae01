package core

import (
	"testing"
	"unsafe"
)

// TestMachineSizeClass keeps a Machine in the allocator's 576-byte size
// class. Go puts an 8-byte header in front of an object that holds
// pointers, so a Machine of 568 bytes fills that class exactly; one byte
// more moves every measurement to the 640-byte class, +64 B per job that
// the allocation-count ceilings do not see (they count allocations, not
// bytes). A field that needs the room must free it elsewhere first.
func TestMachineSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Machine{}); n > 568 {
		t.Errorf("unsafe.Sizeof(Machine{}) = %d, above 568: the allocation leaves the 576-byte size class", n)
	}
	// The knowledge table holds tens of thousands of records, every kind in
	// one: a field that needs room must find it in known's padding.
	if n := unsafe.Sizeof(known{}); n > 48 {
		t.Errorf("unsafe.Sizeof(known{}) = %d, above 48", n)
	}
}
