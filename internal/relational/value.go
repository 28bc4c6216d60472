// Package relational is an in-process relational database engine: typed
// tables, hash indexes, and an executor for SELECT statement ASTs
// (comma-separated joins, WHERE filters including LIKE and IN, DISTINCT),
// compiled once by Prepare and printed as SQL for EXPLAIN.
//
// It is the PostgreSQL stand-in for ThreatRaptor's relational storage
// backend (Section III-B): system entities and system events are stored in
// separate tables with indexes on key attributes, and TBQL event patterns
// are compiled into small SQL data queries executed here. The engine
// builds those queries as ASTs; the package reads no SQL text (the test
// support package sqltext does).
package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind is the type of a Value.
type Kind uint8

// Supported column/value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindString
)

// Value is a single typed cell.
type Value struct {
	K Kind
	I int64
	S string
}

// Null, Int and Str build values.
func Null() Value        { return Value{K: KindNull} }
func Int(i int64) Value  { return Value{K: KindInt, I: i} }
func Str(s string) Value { return Value{K: KindString, S: s} }
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsNull reports whether v is the NULL value.
func (v Value) IsNull() bool { return v.K == KindNull }

// Truthy reports whether v counts as true in a WHERE clause.
func (v Value) Truthy() bool {
	switch v.K {
	case KindInt:
		return v.I != 0
	case KindString:
		return v.S != ""
	default:
		return false
	}
}

// String renders the value for result output.
func (v Value) String() string {
	switch v.K {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindString:
		return v.S
	default:
		return "NULL"
	}
}

// Equal reports strict equality (same kind, same content). NULL never
// equals anything, including NULL, matching SQL semantics for '='.
func (v Value) Equal(o Value) bool {
	if v.K == KindNull || o.K == KindNull {
		return false
	}
	if v.K != o.K {
		// Allow numeric-string comparison leniency: "42" == 42.
		if v.K == KindString && o.K == KindInt {
			if n, err := strconv.ParseInt(v.S, 10, 64); err == nil {
				return n == o.I
			}
			return false
		}
		if v.K == KindInt && o.K == KindString {
			return o.Equal(v)
		}
		return false
	}
	if v.K == KindInt {
		return v.I == o.I
	}
	return v.S == o.S
}

// Compare returns -1, 0, or +1 ordering v relative to o, with an error for
// incomparable kinds. NULL sorts before everything.
func (v Value) Compare(o Value) (int, error) {
	if v.K == KindNull || o.K == KindNull {
		switch {
		case v.K == o.K:
			return 0, nil
		case v.K == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if v.K != o.K {
		return 0, fmt.Errorf("relational: cannot compare %v and %v", v.K, o.K)
	}
	if v.K == KindInt {
		switch {
		case v.I < o.I:
			return -1, nil
		case v.I > o.I:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return strings.Compare(v.S, o.S), nil
}

// Key returns a hashable representation for index and DISTINCT use.
func (v Value) Key() string {
	switch v.K {
	case KindInt:
		return "i" + strconv.FormatInt(v.I, 10)
	case KindString:
		return "s" + v.S
	default:
		return "n"
	}
}

// Like reports whether s matches the SQL LIKE pattern: '%' matches any
// sequence (including empty) and '_' matches exactly one byte. Matching is
// case-sensitive, like PostgreSQL's LIKE.
func Like(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer wildcard match ('%' = '*', '_' = '?').
	var si, pi int
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			ss++
			si = ss
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
