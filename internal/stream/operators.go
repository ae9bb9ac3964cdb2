package stream

import "io"

// MapFunc transforms one tuple into another (same schema or a compatible
// one chosen by the caller).
type MapFunc func(Tuple) Tuple

// FilterFunc decides whether a tuple passes.
type FilterFunc func(Tuple) bool

// mapSource applies fn to every tuple.
type mapSource struct {
	src    Source
	schema *Schema
	fn     MapFunc
}

// Map returns a source that applies fn to every tuple of src. outSchema
// may be nil to keep the input schema.
func Map(src Source, outSchema *Schema, fn MapFunc) Source {
	if outSchema == nil {
		outSchema = src.Schema()
	}
	return &mapSource{src: src, schema: outSchema, fn: fn}
}

func (m *mapSource) Schema() *Schema { return m.schema }

func (m *mapSource) Next() (Tuple, error) {
	t, err := m.src.Next()
	if err != nil {
		return t, err
	}
	return m.fn(t), nil
}

// filterSource drops tuples failing the predicate.
type filterSource struct {
	src Source
	fn  FilterFunc
}

// Filter returns a source with only the tuples of src satisfying fn.
func Filter(src Source, fn FilterFunc) Source {
	return &filterSource{src: src, fn: fn}
}

func (f *filterSource) Schema() *Schema { return f.src.Schema() }

func (f *filterSource) Next() (Tuple, error) {
	for {
		t, err := f.src.Next()
		if err != nil {
			return t, err
		}
		if f.fn(t) {
			return t, nil
		}
	}
}

// takeSource caps a stream at n tuples.
type takeSource struct {
	src Source
	n   int
}

// Take returns a source with at most n tuples of src.
func Take(src Source, n int) Source { return &takeSource{src: src, n: n} }

func (t *takeSource) Schema() *Schema { return t.src.Schema() }

func (t *takeSource) Next() (Tuple, error) {
	if t.n <= 0 {
		return Tuple{}, io.EOF
	}
	t.n--
	return t.src.Next()
}
