package fol

import (
	"strings"
)

// String renders t as an s-expression by walking the whole term. The
// rendering is canonical: two terms render identically iff they are
// structurally equal, and it always equals Key.
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

// Key returns the canonical form of t: its String rendering, computed once
// at intern time and published before the node is, so Key is a race-free
// field read no matter how many goroutines share the term. Two terms have
// the same key iff they are structurally equal, across interners too, so
// the key is a sound interner-independent cache key.
func (t *Term) Key() string { return t.key }

func (t *Term) write(b *strings.Builder) { t.write1(b, (*Term).write) }

// writeKey renders t through its published key; intern uses it to build a
// parent's key as one concatenation of its (already interned) children's.
func (t *Term) writeKey(b *strings.Builder) { b.WriteString(t.key) }

// write1 renders one node, recursing through rec so callers choose how
// children are rendered (full re-walk, or short-circuit through keys).
func (t *Term) write1(b *strings.Builder, rec func(*Term, *strings.Builder)) {
	switch t.Kind {
	case KVar:
		b.WriteString(t.Name)
	case KNum:
		b.WriteString(t.Rat.RatString())
	case KTrue:
		b.WriteString("true")
	case KFalse:
		b.WriteString("false")
	case KApp:
		b.WriteByte('(')
		b.WriteString("@" + t.Name)
		for _, a := range t.Args {
			b.WriteByte(' ')
			rec(a, b)
		}
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		b.WriteString(t.Kind.String())
		for _, a := range t.Args {
			b.WriteByte(' ')
			rec(a, b)
		}
		b.WriteByte(')')
	}
}
