package lint

import (
	"go/ast"
	"go/types"
)

// nondet guards the determinism contract of the calibration and model
// layer. The evaluation's calibration fan-out (internal/experiments'
// measureAll) promises a bit-identical model for any -workers count;
// that promise only holds if the measurement and model code itself is
// a pure function of its inputs. A time.Now timestamp or a draw from
// the globally-seeded math/rand source re-introduces run-to-run
// variance — models stop being reproducible, and the worker-count
// equivalence tests turn flaky in the worst possible way (rarely, and
// only under load).
//
// The check is scoped to "calibration context": function bodies that
// touch the model package or the calibration/search API. Operational and
// measurement code (energy meters, load generators) legitimately reads
// the wall clock and is out of scope. Explicitly seeded generators
// (rand.New(rand.NewSource(seed))) are deterministic and never flagged —
// only the package-level convenience functions of math/rand are.
//
// Selector implementations are held to the same contract: a Select or
// Correct method taking core.Features is the Select stage of the staged
// controller pipeline, and per-input level selection must be a pure
// function of the features and the calibrated curves — a wall-clock
// read or a global-rand draw there makes the chosen level (and thus the
// served result) irreproducible, defeating the drift-correction math
// and the proactive-vs-reactive experiments alike.
var analyzerNonDet = &Analyzer{
	Name: "nondet",
	Tier: TierCFG,
	Doc:  "calibration/model and Selector code must not call time.Now or the global math/rand source; determinism keeps parallel calibration bit-identical and level selection reproducible",
	run:  runNonDet,
}

// calibrationFuncs are core/green functions and methods whose presence
// marks a function body as calibration context.
var calibrationFuncs = map[string]bool{
	"AddRun":             true,
	"AddRunFeat":         true,
	"Build":              true,
	"BuildLoopModel":     true,
	"BuildFuncModel":     true,
	"BuildSelector":      true,
	"CombineSearch":      true,
	"FeatureBuckets":     true,
	"InstallSelector":    true,
	"NewLoopCalibration": true,
	"NewFuncCalibration": true,
	"NewCalibration2D":   true,
}

// nondetTimeFuncs are the wall-clock reads that break reproducibility.
var nondetTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randDeterministic are math/rand package functions that construct
// explicitly-seeded sources rather than drawing from the global one.
var randDeterministic = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// selectorMethods are the Selector interface methods whose bodies are
// Select-stage context: level choice and drift correction.
var selectorMethods = map[string]bool{"Select": true, "Correct": true}

func runNonDet(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					break
				}
				switch {
				case isSelectorMethod(p, d):
					checkNonDet(p, d.Body, "Select-stage", "per-input level selection must be reproducible")
				case isCalibrationContext(p, d.Body):
					checkNonDet(p, d.Body, "calibration", "parallel calibration must stay bit-identical")
				}
			case *ast.FuncLit:
				// Literals are visited independently of their enclosing
				// declaration so calibration closures inside operational
				// code are still covered.
				if d.Body != nil && isCalibrationContext(p, d.Body) {
					checkNonDet(p, d.Body, "calibration", "parallel calibration must stay bit-identical")
				}
			}
			return true
		})
	}
}

// checkNonDet flags the wall-clock and global-rand calls inside one
// determinism-contract body. ctx names the contract ("calibration" or
// "Select-stage") and why phrases its stake.
func checkNonDet(p *Pass, body *ast.BlockStmt, ctx, why string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(p.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true // methods (e.g. on an explicit *rand.Rand) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if nondetTimeFuncs[fn.Name()] {
				p.reportf(call.Pos(), "time.%s in %s code; derive timestamps from inputs so %s", fn.Name(), ctx, why)
			}
		case "math/rand", "math/rand/v2":
			if !randDeterministic[fn.Name()] {
				p.reportf(call.Pos(), "rand.%s draws from the global source in %s code; use rand.New(rand.NewSource(seed)) so %s", fn.Name(), ctx, why)
			}
		}
		return true
	})
}

// isSelectorMethod reports whether d declares a Select or Correct
// method taking a core.Features parameter — the signature shape of a
// Selector implementation's Select stage.
func isSelectorMethod(p *Pass, d *ast.FuncDecl) bool {
	if d.Recv == nil || !selectorMethods[d.Name.Name] {
		return false
	}
	fn, ok := p.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isPkgType(sig.Params().At(i).Type(), corePath, "Features") {
			return true
		}
	}
	return false
}

// isCalibrationContext reports whether body references the model package
// or calls into the calibration/search API.
func isCalibrationContext(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == modelPath {
				found = true
			}
		case *ast.CallExpr:
			if fn := calleeOf(p.Info, n); fn != nil && fn.Pkg() != nil {
				path := fn.Pkg().Path()
				if (path == corePath || path == "green") && calibrationFuncs[fn.Name()] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
