package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// KernelOrder guards the float-determinism contract of internal/mathx: the
// default backend documents its accumulation order as API (kernels.go), so
// every engine result is bit-identical across worker counts, batch shapes,
// CPUs and releases. math.FMA contracts a multiply-add into one rounding step
// and float32 arithmetic rounds to a different lattice entirely — either one
// in a default-backend kernel silently changes every golden metric. The
// deliberate-numerics fast tier planned by the roadmap relaxes this under a
// fastmath build tag, which this analyzer exempts.
//
// The analyzer reads Go source only. The same rule for the package's
// assembly (no fused multiply-add mnemonic, no single-precision *PS/*SS
// instruction) is enforced by TestAssemblyKeepsKernelOrder in
// internal/mathx.
var KernelOrder = &Analyzer{
	Name: "kernelorder",
	Doc: "forbid math.FMA and float32 arithmetic in the default mathx backend, " +
		"whose accumulation order is documented API; relaxed kernels belong behind " +
		"the fastmath build tag",
	Run: runKernelOrder,
}

// arithmeticAssignOps are the compound assignments that perform float
// arithmetic on their operands.
var arithmeticAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true,
}

func runKernelOrder(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(), "internal/mathx") {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) || hasFastmathTag(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if obj := pass.TypesInfo.Uses[n.Sel]; obj != nil && obj.Pkg() != nil &&
					obj.Pkg().Path() == "math" && obj.Name() == "FMA" {
					pass.Reportf(n.Pos(),
						"math.FMA in the default mathx backend: fused rounding changes the documented accumulation order; use separate multiply and add, or move the kernel behind the fastmath build tag")
				}
			case *ast.BinaryExpr:
				switch n.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					if isFloat32(pass.TypeOf(n.X)) || isFloat32(pass.TypeOf(n.Y)) {
						pass.Reportf(n.Pos(),
							"float32 arithmetic in the default mathx backend: kernels accumulate in float64 as documented API; use float64, or move the kernel behind the fastmath build tag")
					}
				}
			case *ast.AssignStmt:
				if arithmeticAssignOps[n.Tok] && len(n.Lhs) == 1 && isFloat32(pass.TypeOf(n.Lhs[0])) {
					pass.Reportf(n.Pos(),
						"float32 arithmetic in the default mathx backend: kernels accumulate in float64 as documented API; use float64, or move the kernel behind the fastmath build tag")
				}
			}
			return true
		})
	}
	return nil
}

func isFloat32(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float32
}

// hasFastmathTag reports whether the file carries a //go:build constraint
// mentioning the fastmath tag — the opt-in relaxed-numerics tier, which
// gates against its own golden metrics instead of the default backend's.
func hasFastmathTag(f *ast.File) bool {
	for _, cg := range f.Comments {
		// Build constraints must precede the package clause.
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//go:build") && strings.Contains(c.Text, "fastmath") {
				return true
			}
		}
	}
	return false
}
