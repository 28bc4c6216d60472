package relational

import "fmt"

// EvalExpr evaluates a SQL/Cypher expression tree against an arbitrary
// column resolver. Both the relational executor and the graph engine use
// this single evaluator so that comparison, LIKE, and boolean semantics are
// identical across backends: the executor's batch kernels cover the typed
// shapes with exactly these semantics, and every other shape runs here.
func EvalExpr(e Expr, resolve func(ColRef) (Value, error)) (Value, error) {
	return evalExpr(e, resolve, nil)
}

// EvalExprWith is EvalExpr with an execution's parameters bound:
// ValParam{Slot: i} reads params.Vals[i] (the graph backend binds a
// query's literal vector so), Param and ParamIDs read params.Ints and
// params.Lists.
func EvalExprWith(e Expr, resolve func(ColRef) (Value, error), params *Params) (Value, error) {
	return evalExpr(e, resolve, params)
}

// evalExpr is EvalExpr with the parameter leaves of a prepared statement:
// Param reads params.Ints, ParamIDs tests membership in params.Lists,
// ValParam reads params.Vals. With nil params (EvalExpr) all three are
// unevaluable.
func evalExpr(e Expr, resolve func(ColRef) (Value, error), params *Params) (Value, error) {
	switch v := e.(type) {
	case Lit:
		return v.V, nil
	case ColRef:
		return resolve(v)
	case ValParam:
		if params != nil && v.Slot >= 0 && v.Slot < len(params.Vals) {
			return params.Vals[v.Slot], nil
		}
		return Null(), fmt.Errorf("relational: value slot %d is not bound", v.Slot)
	case Param:
		if params != nil {
			return Int(params.Ints[v.Slot]), nil
		}
	case ParamIDs:
		if params != nil {
			x, err := evalExpr(v.E, resolve, params)
			if err != nil {
				return Null(), err
			}
			return Bool(x.K == KindInt && params.contains(v.Slot, x.I)), nil
		}
	case UnOp:
		x, err := evalExpr(v.E, resolve, params)
		if err != nil {
			return Null(), err
		}
		return Bool(!x.Truthy()), nil
	case InList:
		x, err := evalExpr(v.E, resolve, params)
		if err != nil {
			return Null(), err
		}
		match := false
		for _, ve := range v.Vals {
			y, err := evalExpr(ve, resolve, params)
			if err != nil {
				return Null(), err
			}
			if x.Equal(y) {
				match = true
				break
			}
		}
		return Bool(match != v.Negate), nil
	case BinOp:
		switch v.Op {
		case "and":
			l, err := evalExpr(v.L, resolve, params)
			if err != nil {
				return Null(), err
			}
			if !l.Truthy() {
				return Bool(false), nil
			}
			r, err := evalExpr(v.R, resolve, params)
			if err != nil {
				return Null(), err
			}
			return Bool(r.Truthy()), nil
		case "or":
			l, err := evalExpr(v.L, resolve, params)
			if err != nil {
				return Null(), err
			}
			if l.Truthy() {
				return Bool(true), nil
			}
			r, err := evalExpr(v.R, resolve, params)
			if err != nil {
				return Null(), err
			}
			return Bool(r.Truthy()), nil
		}
		l, err := evalExpr(v.L, resolve, params)
		if err != nil {
			return Null(), err
		}
		r, err := evalExpr(v.R, resolve, params)
		if err != nil {
			return Null(), err
		}
		switch v.Op {
		case "=":
			return Bool(l.Equal(r)), nil
		case "<>":
			if l.IsNull() || r.IsNull() {
				return Bool(false), nil
			}
			return Bool(!l.Equal(r)), nil
		case "like":
			if l.K != KindString || r.K != KindString {
				return Bool(false), nil
			}
			return Bool(Like(l.S, r.S)), nil
		case "+", "-":
			if l.K != KindInt || r.K != KindInt {
				return Null(), fmt.Errorf("relational: arithmetic requires integers")
			}
			if v.Op == "+" {
				return Int(l.I + r.I), nil
			}
			return Int(l.I - r.I), nil
		case "<", "<=", ">", ">=":
			cmp, err := l.Compare(r)
			if err != nil {
				return Null(), err
			}
			return Bool(cmpHolds(v.Op, cmp)), nil
		}
		return Null(), fmt.Errorf("relational: unknown operator %q", v.Op)
	}
	return Null(), fmt.Errorf("relational: cannot evaluate %T", e)
}

// cmpHolds reports whether an ordering comparison op holds for a
// Compare result.
func cmpHolds(op string, cmp int) bool {
	switch op {
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	default:
		return cmp >= 0
	}
}
