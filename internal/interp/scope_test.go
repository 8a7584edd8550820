package interp

import (
	"io"
	"runtime"
	"testing"
	"weak"

	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/rt"
)

// TestScopeCacheFreedWithTree runs several programs through one
// long-lived interpreter, the way a serve session does, and asserts
// the first program's syntax tree is collectable afterwards: the
// per-function scope cache must not pin every request's tree.
func TestScopeCacheFreedWithTree(t *testing.T) {
	const src = `
def f(n):
    s = 0
    for i in range(n):
        s += i
    return s
x = f(10)
`
	in := New(Options{Stdout: io.Discard, Layer: rt.LayerAtomic, Getenv: func(string) string { return "" }})
	defer in.Runtime().Shutdown()
	var first weak.Pointer[minipy.FuncDef]
	for i := 0; i < 8; i++ {
		mod, err := minipy.Parse(src, "req.py")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = weak.Make(mod.Body[0].(*minipy.FuncDef))
		}
		if err := in.RunModule(mod); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("the first program's FuncDef is still reachable after later programs replaced it")
	}
	runtime.KeepAlive(in) // the session outlives its requests
}
