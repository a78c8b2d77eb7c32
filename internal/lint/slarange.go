package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// slarange validates literal configuration values against the ranges the
// runtime contract requires: an SLA is a fractional QoS loss in (0,1], a
// sampling interval is positive (zero, the field's absence, disables
// monitoring — writing it explicitly is at best redundant and usually a
// mistake), and adaptive parameters need both a Period and a
// TargetDelta to implement the law of diminishing returns. The Phoenix
// implementation rejects these at compile time; greenlint restores that.
var analyzerSLARange = &Analyzer{
	Name: "slarange",
	Tier: TierBlock,
	Doc:  "literal config fields must be in range: SLA in (0,1], SampleInterval > 0, complete AdaptiveParams",
	run:  runSLARange,
}

// configTypes are the core config structs carrying SLA / SampleInterval
// fields (AppConfig has no SampleInterval; the field lookup just misses).
var configTypes = []string{"LoopConfig", "FuncConfig", "Func2Config", "AppConfig"}

func runSLARange(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := p.Info.Types[lit].Type
			for _, name := range configTypes {
				if isPkgType(t, corePath, name) {
					p.checkConfigLit(lit, name)
					return true
				}
			}
			if isPkgType(t, modelPath, "AdaptiveParams") {
				p.checkAdaptiveLit(lit)
			}
			return true
		})
	}
}

func (p *Pass) checkConfigLit(lit *ast.CompositeLit, typeName string) {
	fields := structLitFields(p, lit)
	if e, ok := fields["SLA"]; ok {
		if v, known := constFloat(p.Info, e); known && (v <= 0 || v > 1) {
			p.reportf(e.Pos(), "%s.SLA is %v; the QoS SLA must lie in (0,1]", typeName, v)
		}
	}
	if e, ok := fields["SampleInterval"]; ok {
		if v, known := constInt(p.Info, e); known && v <= 0 {
			p.reportf(e.Pos(), "%s.SampleInterval is %d; use a positive interval (omit the field to disable monitoring)", typeName, v)
		}
	}
}

func (p *Pass) checkAdaptiveLit(lit *ast.CompositeLit) {
	fields := structLitFields(p, lit)
	if len(fields) == 0 {
		return // zero value, e.g. an error-path return
	}
	for _, name := range []string{"Period", "TargetDelta"} {
		e, ok := fields[name]
		if !ok {
			p.reportf(lit.Pos(), "AdaptiveParams literal is missing %s; adaptive mode needs positive Period and TargetDelta", name)
			continue
		}
		if v, known := constFloat(p.Info, e); known && v <= 0 {
			p.reportf(e.Pos(), "AdaptiveParams.%s is %v; adaptive mode needs positive Period and TargetDelta", name, v)
		}
	}
}

// structLitFields maps field names to their value expressions for both
// keyed and positional struct literals.
func structLitFields(p *Pass, lit *ast.CompositeLit) map[string]ast.Expr {
	fields := map[string]ast.Expr{}
	var st *types.Struct
	if t := p.Info.Types[lit].Type; t != nil {
		st, _ = types.Unalias(t).Underlying().(*types.Struct)
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				fields[key.Name] = kv.Value
			}
			continue
		}
		if st != nil && i < st.NumFields() {
			fields[st.Field(i).Name()] = elt
		}
	}
	return fields
}

// constFloat evaluates e as a compile-time numeric constant.
func constFloat(info *types.Info, e ast.Expr) (float64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	c := constant.ToFloat(tv.Value)
	if c.Kind() != constant.Float {
		return 0, false
	}
	v, _ := constant.Float64Val(c)
	return v, true
}

// constInt evaluates e as a compile-time integer constant.
func constInt(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	c := constant.ToInt(tv.Value)
	if c.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(c)
	return v, exact
}
