package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n float32 whose last element is the last thing
// before a page with no access: a load or store past the slice faults.
func guardedFloats(t testing.TB, n int) []float32 {
	page := syscall.Getpagesize()
	size := (n*4 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // the test is over either way
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	floats := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), size/4)
	return floats[size/4-n:]
}
