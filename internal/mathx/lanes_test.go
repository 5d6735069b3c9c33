package mathx

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// specials are the operands the lane primitives must treat exactly like
// scalar code: signed zeros, infinities, NaN, subnormals and values whose
// products overflow.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -4.9e-320, 2.2250738585072014e-308, 1e300, -1e300,
}

// specialVec is randVec with roughly one element in four drawn from
// specials.
func specialVec(g *lcg, n int) []float64 {
	v := randVec(g, n)
	for i := range v {
		if u := g.next(); u < -0.5 {
			v[i] = specials[int((u+1)*2*float64(len(specials)))%len(specials)]
		}
	}
	return v
}

// sameFloat compares bit patterns, except that any NaN equals any NaN: the
// payload a NaN result carries depends on operand order, which no kernel
// contract fixes.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestAssemblyKeepsKernelOrder extends the kernelorder contract, which
// speclint checks in Go source, to this package's assembly: no fused
// multiply-add and no single-precision instruction.
func TestAssemblyKeepsKernelOrder(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no assembly files found; the check would pass vacuously")
	}
	fused := regexp.MustCompile(`^VFN?M(ADD|SUB)`)
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text, _, _ := strings.Cut(sc.Text(), "//")
			fields := strings.Fields(text)
			if len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
				continue
			}
			op := strings.ToUpper(fields[0])
			switch {
			case fused.MatchString(op):
				t.Errorf("%s:%d: %s is a fused multiply-add; kernels round every multiply and add separately", name, line, op)
			case strings.HasSuffix(op, "PS") || strings.HasSuffix(op, "SS"):
				t.Errorf("%s:%d: %s is a single-precision instruction; kernels compute in float64", name, line, op)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}
