package core

import (
	"fmt"
	"sort"

	"icewafl/internal/stream"
)

// ValidateAttrs statically checks a process against a stream schema:
// every attribute a component names — a polluter's targets, a keyed
// polluter's key, a compare or predicate condition's attribute — must
// exist. Misspelled attributes would otherwise silently no-op — the
// error functions skip unknown names and the conditions never fire at
// runtime by design, because sub-streams may legitimately carry
// different schemas.
func (pr *Process) ValidateAttrs(schema *stream.Schema) error {
	missing := map[string]bool{}
	var v visitor
	v = visitor{
		node: func(_ string, c any, e *Component) error {
			if e != nil && e.attrs != nil {
				for _, a := range e.attrs(c) {
					if !schema.Has(a) {
						missing[a] = true
					}
				}
			}
			return nil
		},
		// Instantiate the template once for a throwaway key: every
		// instance names the same attributes.
		keyed: func(_ string, k *KeyedPolluter) ([]string, error) {
			return nil, walkPipeline(NewPipeline(k.New("__validate__")), v)
		},
	}
	for _, p := range pr.Pipelines {
		if p != nil {
			_ = walkPipeline(p, v) // no callback fails
		}
	}
	if len(missing) == 0 {
		return nil
	}
	names := make([]string, 0, len(missing))
	for n := range missing {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Errorf("core: polluters target attributes not in the schema: %v", names)
}
