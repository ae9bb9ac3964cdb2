package core

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"icewafl/internal/stream"
)

// canonicalBag is a configuration object for c that sets every key it
// takes to a value inside the key's range.
func canonicalBag(c *Component) Bag {
	b := Bag{"type": json.RawMessage(`"` + c.Name + `"`)}
	for _, k := range c.Keys {
		n := 0.5
		if r := k.Range; r != nil {
			n = r.Hi
			if math.IsInf(n, 1) {
				n = r.Lo
			}
		}
		v := map[KeyType]any{
			KeyFloat: n, KeyInt: int(math.Round(n)) + 2, KeyBool: true, KeyText: "v", KeyTexts: []string{"a"},
			KeyDuration: "1h", KeyInstant: "2020-01-01T00:00:00Z", KeyScalar: 1, KeyParam: 1,
			KeyPattern:    map[string]string{"type": "abrupt"},
			KeyCondition:  map[string]string{"type": "always"},
			KeyConditions: []map[string]string{{"type": "always"}},
			KeyErrors:     []map[string]string{{"type": "missing_value"}},
		}[k.Type]
		if k.Enum != nil {
			v = k.Enum[0]
		}
		if k.Type == KeyInt && k.Range != nil {
			v = int(n)
		}
		raw, _ := json.Marshal(v)
		b[k.Name] = raw
	}
	return b
}

// TestComponentTable holds the table to what the walk and Build assume
// of it: one entry per configuration name and per dynamic type, every
// named entry below the polluter level builds from a configuration
// object into a value of its own dynamic type, and a key the type does
// not take is an error naming the key and the path.
func TestComponentTable(t *testing.T) {
	named, typed := 0, 0
	for i := range components {
		c := &components[i]
		if c.Name != "" {
			named++
		}
		if c.of != nil {
			typed++
		}
		if c.Name == "" || c.Role == RolePolluter {
			continue
		}
		t.Run(c.Role.String()+"/"+c.Name, func(t *testing.T) {
			b := canonicalBag(c)
			v, err := Build(c.Role, b, 1, "p")
			if err != nil {
				t.Fatalf("canonical object %v: %v", b, err)
			}
			if c.of != nil && reflect.TypeOf(v) != reflect.TypeOf(c.of) {
				t.Errorf("builds a %T, but the walk looks it up as a %T", v, c.of)
			}
			b["bogus"] = json.RawMessage(`1`)
			_, err = Build(c.Role, b, 1, "p")
			if want := c.Name + ` at p: unknown key "bogus"`; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Build with an unknown key = %v, want %q", err, want)
			}
		})
	}
	if len(byName) != named || len(byType) != typed {
		t.Errorf("indexes hold %d names and %d types, the table %d and %d: a duplicate", len(byName), len(byType), named, typed)
	}
}

func TestValueJSONMapping(t *testing.T) {
	cases := []struct {
		raw  string
		want stream.Value
	}{
		{`1.5`, stream.Float(1.5)},
		{`true`, stream.Bool(true)},
		{`"text"`, stream.Str("text")},
		{`"2020-01-01T00:00:00Z"`, stream.Time(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))},
		{`null`, stream.Null()},
	}
	for _, c := range cases {
		got, err := parseValueJSON([]byte(c.raw))
		if err != nil || !got.Equal(c.want) {
			t.Errorf("parseValueJSON(%s) = %v, %v", c.raw, got, err)
		}
	}
	if _, err := parseValueJSON(nil); err == nil {
		t.Error("missing value accepted")
	}
	if _, err := parseValueJSON([]byte(`[1,2]`)); err == nil {
		t.Error("array value accepted")
	}
}
