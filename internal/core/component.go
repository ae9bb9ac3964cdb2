package core

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// This file is the one description of every pollution component: the
// configuration name it goes by, the keys it takes and their valid
// ranges, how it is built from a configuration object, and what the
// component walk (walk.go) visits inside it. internal/config builds
// conditions, error functions, parameters and change patterns through
// Build; snapshot, restore, reset and ValidateAttrs find a component's
// entry by its dynamic type. Adding a component is one entry here.

// Bag is a configuration object undecoded: its "type" and the keys that
// type takes.
type Bag map[string]json.RawMessage

// Role is the place a component takes in a polluter.
type Role int

// The roles of the component table.
const (
	RolePolluter Role = iota
	RoleCondition
	RoleError
	RoleParam
	RolePattern
)

func (r Role) String() string {
	return [...]string{"polluter", "condition", "error", "param", "pattern"}[r]
}

// KeyType is what a configuration key holds.
type KeyType int

// The key types of the component table.
const (
	KeyFloat      KeyType = iota // a number
	KeyInt                       // an integer
	KeyBool                      // true or false
	KeyText                      // a string
	KeyTexts                     // a non-empty list of strings
	KeyDuration                  // a Go duration such as "90m"
	KeyInstant                   // an RFC3339 timestamp; absent is unbounded
	KeyScalar                    // any JSON scalar, as a stream.Value
	KeyParam                     // a number, or a param object
	KeyPattern                   // a pattern object
	KeyCondition                 // a condition object
	KeyConditions                // a non-empty list of condition objects
	KeyErrors                    // a non-empty list of error objects
)

// Key is one configuration key a component takes.
type Key struct {
	Name string
	Type KeyType
	// Required keys must be set; an absent optional one reads as its zero
	// value.
	Required bool
	// Range bounds a number or a duration (in nanoseconds); nil is any.
	Range *Range
	// Enum lists the values a text may take; nil is any.
	Enum []string
	// Sub is the path suffix a child object is built under (default
	// "/"+Name; list entries get "/<index>"). A child derives its RNG
	// streams from its path, so Sub is part of the output bytes.
	Sub string
}

// Range is the interval [Lo, Hi], or (Lo, Hi] when Open.
type Range struct {
	Lo, Hi float64
	Open   bool
}

func need(name string, t KeyType) Key { return Key{Name: name, Type: t, Required: true} }
func opt(name string, t KeyType) Key  { return Key{Name: name, Type: t} }
func (k Key) in(r Range) Key          { k.Range = &r; return k }
func (k Key) under(sub string) Key    { k.Sub = sub; return k }

var (
	inf      = math.Inf(1)
	unit     = Range{Hi: 1}
	positive = Range{Hi: inf, Open: true}
)

// Component is one entry of the component table.
type Component struct {
	// Name is the configuration "type"; code-only built-ins have none.
	Name string
	Role Role
	// Keys are the configuration keys the component takes.
	Keys []Key

	of    any                                 // a value of the component's dynamic type
	build func(a *args) any                   // builds it from a configuration object
	walk  func(w *walker, c any, path string) // visits its RNG stream, run state and children
	attrs func(c any) []string                // the schema attributes it names
}

// Components returns the component table; callers must not modify it.
func Components() []Component { return components }

// randAt visits the RNG stream of a component that owns one, under
// path+"/rand".
func randAt(rand func(c any) *rng.Stream) func(*walker, any, string) {
	return func(w *walker, c any, path string) { w.stream(path+"/rand", rand(c)) }
}

// ownState visits a component that is its own run state.
func ownState(w *walker, c any, path string) { w.runState(path, c) }

var components = []Component{
	// Polluters; internal/config builds them from PolluterSpec.
	{Name: "standard", Role: RolePolluter, of: (*Standard)(nil),
		attrs: func(c any) []string { return c.(*Standard).Attrs },
		walk: func(w *walker, c any, path string) {
			p := c.(*Standard)
			w.visit(p.Cond, path+"/cond")
			w.visit(p.Err, path+"/err")
		}},
	{Name: "composite", Role: RolePolluter, of: (*Composite)(nil),
		walk: func(w *walker, c any, path string) {
			p := c.(*Composite)
			w.visit(p.Cond, path+"/cond")
			w.stream(path+"/rand", p.Rand)
			for i, child := range p.Children {
				w.visit(child, polPath(path, i, child))
			}
		}},
	{Name: "keyed", Role: RolePolluter, of: (*KeyedPolluter)(nil),
		attrs: func(c any) []string { return []string{c.(*KeyedPolluter).KeyAttr} },
		walk:  func(w *walker, c any, path string) { w.instances(c.(*KeyedPolluter), path) }},
	{Role: RolePolluter, of: (*Observer)(nil),
		walk: func(w *walker, c any, path string) { w.runState(path+"/state", c.(*Observer).State) }},

	// Conditions.
	{Name: "always", Role: RoleCondition, of: Always{}, build: func(*args) any { return Always{} }},
	{Name: "never", Role: RoleCondition, of: Never{}, build: func(*args) any { return Never{} }},
	{Name: "random", Role: RoleCondition, of: (*Random)(nil),
		Keys: []Key{opt("p", KeyFloat).in(unit), opt("p_param", KeyParam).under("/p")},
		build: func(a *args) any {
			switch {
			case a.has("p_param"):
				return NewRandom(arg[Param](a, "p_param"), a.rand())
			case a.has("p"):
				return NewRandom(Const(arg[float64](a, "p")), a.rand())
			}
			a.fail("needs p or p_param")
			return nil
		},
		walk: randAt(func(c any) *rng.Stream { return c.(*Random).Rand })},
	{Name: "compare", Role: RoleCondition, of: Compare{},
		Keys: []Key{need("attr", KeyText),
			{Name: "op", Type: KeyText, Required: true, Enum: []string{"==", "!=", "<", "<=", ">", ">="}},
			need("value", KeyScalar)},
		build: func(a *args) any {
			return Compare{Attr: arg[string](a, "attr"), Op: ValueOp(arg[string](a, "op")), Value: arg[stream.Value](a, "value")}
		},
		attrs: func(c any) []string { return []string{c.(Compare).Attr} }},
	{Role: RoleCondition, of: AttrPredicate{},
		attrs: func(c any) []string { return []string{c.(AttrPredicate).Attr} }},
	{Name: "time_interval", Role: RoleCondition, of: TimeInterval{},
		Keys:  []Key{opt("from", KeyInstant), opt("to", KeyInstant)},
		build: func(a *args) any { return TimeInterval{From: arg[time.Time](a, "from"), To: arg[time.Time](a, "to")} }},
	{Name: "time_of_day", Role: RoleCondition, of: TimeOfDay{},
		Keys: []Key{opt("from_hour", KeyInt).in(Range{Hi: 23}), opt("to_hour", KeyInt).in(Range{Hi: 24})},
		build: func(a *args) any {
			c := TimeOfDay{FromHour: arg[int](a, "from_hour"), ToHour: arg[int](a, "to_hour")}
			if c.FromHour == c.ToHour {
				a.fail("from_hour == to_hour (%d) never fires", c.FromHour)
			}
			return c
		}},
	{Name: "and", Role: RoleCondition, of: And(nil),
		Keys:  []Key{need("children", KeyConditions)},
		build: func(a *args) any { return And(arg[[]Condition](a, "children")) },
		walk:  func(w *walker, c any, path string) { visitEach(w, c.(And), path) }},
	{Name: "or", Role: RoleCondition, of: Or(nil),
		Keys:  []Key{need("children", KeyConditions)},
		build: func(a *args) any { return Or(arg[[]Condition](a, "children")) },
		walk:  func(w *walker, c any, path string) { visitEach(w, c.(Or), path) }},
	{Name: "not", Role: RoleCondition, of: Not{},
		Keys:  []Key{need("child", KeyCondition).under("/not")},
		build: func(a *args) any { return Not{Inner: arg[Condition](a, "child")} },
		walk:  func(w *walker, c any, path string) { w.visit(c.(Not).Inner, path+"/not") }},
	{Name: "sticky", Role: RoleCondition, of: (*Sticky)(nil),
		Keys:  []Key{need("child", KeyCondition).under("/sticky"), need("hold", KeyDuration).in(positive)},
		build: func(a *args) any { return NewSticky(arg[Condition](a, "child"), arg[time.Duration](a, "hold")) },
		walk: func(w *walker, c any, path string) {
			ownState(w, c, path)
			w.visit(c.(*Sticky).Trigger, path+"/trigger")
		}},
	{Name: "markov", Role: RoleCondition, of: (*MarkovCondition)(nil),
		Keys: []Key{need("p_enter", KeyFloat).in(Range{Hi: 1, Open: true}), need("p_exit", KeyFloat).in(Range{Hi: 1, Open: true})},
		build: func(a *args) any {
			return NewMarkovCondition(arg[float64](a, "p_enter"), arg[float64](a, "p_exit"), a.rand())
		},
		walk: func(w *walker, c any, path string) {
			ownState(w, c, path)
			w.stream(path+"/rand", c.(*MarkovCondition).Rand)
		}},
	{Name: "budget", Role: RoleCondition, of: (*BudgetCondition)(nil),
		Keys: []Key{need("child", KeyCondition).under("/budget"), need("budget", KeyInt).in(Range{Lo: 1, Hi: inf}),
			need("window", KeyDuration).in(positive)},
		build: func(a *args) any {
			return NewBudgetCondition(arg[Condition](a, "child"), arg[int](a, "budget"), arg[time.Duration](a, "window"))
		},
		walk: func(w *walker, c any, path string) {
			ownState(w, c, path)
			w.visit(c.(*BudgetCondition).Inner, path+"/inner")
		}},
	{Role: RoleCondition, of: (*CascadeCondition)(nil), walk: ownState},
	{Role: RoleCondition, of: DeviationCondition{},
		walk: func(w *walker, c any, path string) { w.runState(path+"/state", c.(DeviationCondition).State) }},

	// Error functions.
	{Name: "gaussian_noise", Role: RoleError, of: (*GaussianNoise)(nil),
		Keys:  []Key{need("stddev", KeyParam)},
		build: func(a *args) any { return &GaussianNoise{Stddev: arg[Param](a, "stddev"), Rand: a.rand()} },
		walk:  randAt(func(c any) *rng.Stream { return c.(*GaussianNoise).Rand })},
	{Name: "uniform_mult_noise", Role: RoleError, of: (*UniformMultNoise)(nil),
		Keys: []Key{need("lo", KeyParam), need("hi", KeyParam)},
		build: func(a *args) any {
			return &UniformMultNoise{Lo: arg[Param](a, "lo"), Hi: arg[Param](a, "hi"), Rand: a.rand()}
		},
		walk: randAt(func(c any) *rng.Stream { return c.(*UniformMultNoise).Rand })},
	{Name: "scale_by_factor", Role: RoleError, of: (*ScaleByFactor)(nil),
		Keys:  []Key{need("factor", KeyParam)},
		build: func(a *args) any { return &ScaleByFactor{Factor: arg[Param](a, "factor")} }},
	{Name: "missing_value", Role: RoleError, of: MissingValue{}, build: func(*args) any { return MissingValue{} }},
	{Name: "set_constant", Role: RoleError, of: SetConstant{},
		Keys:  []Key{need("value", KeyScalar)},
		build: func(a *args) any { return SetConstant{Value: arg[stream.Value](a, "value")} }},
	{Name: "incorrect_category", Role: RoleError, of: (*IncorrectCategory)(nil),
		Keys: []Key{need("categories", KeyTexts)},
		build: func(a *args) any {
			return &IncorrectCategory{Categories: arg[[]string](a, "categories"), Rand: a.rand()}
		},
		walk: randAt(func(c any) *rng.Stream { return c.(*IncorrectCategory).Rand })},
	{Name: "round_precision", Role: RoleError, of: RoundPrecision{},
		Keys:  []Key{opt("digits", KeyInt).in(Range{Lo: -22, Hi: 22})},
		build: func(a *args) any { return RoundPrecision{Digits: arg[int](a, "digits")} }},
	{Name: "outlier", Role: RoleError, of: (*Outlier)(nil),
		Keys:  []Key{need("magnitude", KeyParam)},
		build: func(a *args) any { return &Outlier{Magnitude: arg[Param](a, "magnitude"), Rand: a.rand()} },
		walk:  randAt(func(c any) *rng.Stream { return c.(*Outlier).Rand })},
	{Name: "string_typo", Role: RoleError, of: (*StringTypo)(nil),
		build: func(a *args) any { return &StringTypo{Rand: a.rand()} },
		walk:  randAt(func(c any) *rng.Stream { return c.(*StringTypo).Rand })},
	{Name: "swap_attributes", Role: RoleError, of: SwapAttributes{}, build: func(*args) any { return SwapAttributes{} }},
	{Name: "offset", Role: RoleError, of: Offset{},
		Keys:  []Key{need("delta", KeyParam)},
		build: func(a *args) any { return Offset{Delta: arg[Param](a, "delta")} }},
	{Name: "clamp", Role: RoleError, of: Clamp{},
		Keys: []Key{opt("clamp_lo", KeyFloat), opt("clamp_hi", KeyFloat)},
		build: func(a *args) any {
			c := Clamp{Lo: arg[float64](a, "clamp_lo"), Hi: arg[float64](a, "clamp_hi")}
			if c.Lo > c.Hi {
				a.fail("clamp_lo %g > clamp_hi %g", c.Lo, c.Hi)
			}
			return c
		}},
	// A delay only moves arrival forward, which the reorder window relies on.
	{Name: "delayed_tuple", Role: RoleError, of: DelayTuple{},
		Keys:  []Key{need("delay", KeyDuration).in(Range{Hi: inf})},
		build: func(a *args) any { return DelayTuple{Delay: arg[time.Duration](a, "delay")} }},
	{Name: "frozen_value", Role: RoleError, of: (*FrozenValue)(nil),
		build: func(*args) any { return NewFrozenValue() }, walk: ownState},
	{Name: "timestamp_shift", Role: RoleError, of: TimestampShift{},
		Keys:  []Key{need("offset", KeyDuration)},
		build: func(a *args) any { return TimestampShift{Offset: arg[time.Duration](a, "offset")} }},
	{Name: "dropped_tuple", Role: RoleError, of: DropTuple{}, build: func(*args) any { return DropTuple{} }},
	{Name: "hold_and_release", Role: RoleError, of: HoldAndRelease{},
		Keys:  []Key{opt("release_at", KeyInstant)},
		build: func(a *args) any { return HoldAndRelease{ReleaseAt: arg[time.Time](a, "release_at")} }},
	{Name: "chain", Role: RoleError, of: Chain(nil),
		Keys:  []Key{need("errors", KeyErrors)},
		build: func(a *args) any { return Chain(arg[[]ErrorFunc](a, "errors")) },
		walk:  func(w *walker, c any, path string) { visitEach(w, c.(Chain), path) }},

	// Time-varying parameters and the change patterns they scale. The walk
	// never meets them: they live inside their owners' closures.
	{Name: "linear", Role: RoleParam,
		Keys: []Key{opt("from", KeyInstant), opt("to", KeyInstant), opt("v0", KeyFloat), opt("v1", KeyFloat)},
		build: func(a *args) any {
			return Linear(arg[time.Time](a, "from"), arg[time.Time](a, "to"), arg[float64](a, "v0"), arg[float64](a, "v1"))
		}},
	{Name: "sinusoid_daily", Role: RoleParam,
		Keys:  []Key{opt("amp", KeyFloat), opt("offset", KeyFloat)},
		build: func(a *args) any { return SinusoidDaily(arg[float64](a, "amp"), arg[float64](a, "offset")) }},
	{Name: "pattern", Role: RoleParam,
		Keys: []Key{need("pattern", KeyPattern), opt("max", KeyFloat)},
		build: func(a *args) any {
			max := arg[float64](a, "max")
			if max == 0 {
				max = 1
			}
			return Scaled(arg[Pattern](a, "pattern"), max)
		}},
	{Name: "abrupt", Role: RolePattern,
		Keys:  []Key{opt("at", KeyInstant)},
		build: func(a *args) any { return AbruptPattern{At: arg[time.Time](a, "at")} }},
	{Name: "incremental", Role: RolePattern,
		Keys: []Key{opt("from", KeyInstant), opt("to", KeyInstant)},
		build: func(a *args) any {
			return IncrementalPattern{From: arg[time.Time](a, "from"), To: arg[time.Time](a, "to")}
		}},
	{Name: "intermediate", Role: RolePattern,
		Keys: []Key{opt("from", KeyInstant), opt("to", KeyInstant), opt("triangular", KeyBool)},
		build: func(a *args) any {
			return IntermediatePattern{From: arg[time.Time](a, "from"), To: arg[time.Time](a, "to"), Triangular: arg[bool](a, "triangular")}
		}},
}

// The table's two indexes, built once: by configuration name (unique
// across roles) for Build, by dynamic type for the walk.
var (
	byName = map[string]*Component{}
	byType = map[reflect.Type]*Component{}
)

func init() {
	for i := range components {
		c := &components[i]
		if c.Name != "" {
			byName[c.Name] = c
		}
		if c.of != nil {
			byType[reflect.TypeOf(c.of)] = c
		}
	}
}

func (c *Component) key(name string) *Key {
	for i := range c.Keys {
		if c.Keys[i].Name == name {
			return &c.Keys[i]
		}
	}
	return nil
}

// Build compiles the configuration object b into the component of the
// given role it names, deriving every RNG stream from seed and the
// component's path. Errors read "<type> at <path>: …".
func Build(role Role, b Bag, seed int64, path string) (any, error) {
	var name string
	if raw, ok := b["type"]; ok {
		if err := json.Unmarshal(raw, &name); err != nil {
			return nil, fmt.Errorf("%s at %s: type: %w", role, path, err)
		}
	}
	c := byName[name]
	if c == nil || c.Role != role || c.build == nil {
		return nil, fmt.Errorf("unknown %s type %q at %s", role, name, path)
	}
	a := &args{c: c, bag: b, seed: seed, path: path}
	unknown := ""
	for k := range b {
		if k != "type" && c.key(k) == nil && (unknown == "" || k < unknown) {
			unknown = k
		}
	}
	if unknown != "" {
		a.fail("unknown key %q", unknown)
		return nil, a.err
	}
	if v := c.build(a); a.err == nil {
		return v, nil
	}
	return nil, a.err
}

// args is the configuration object a constructor reads. The first
// failure sticks: later reads return zero values and Build reports it.
type args struct {
	c    *Component
	bag  Bag
	seed int64
	path string
	err  error
}

func (a *args) fail(format string, v ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("%s at %s: %s", a.c.Name, a.path, fmt.Sprintf(format, v...))
	}
}

func (a *args) has(name string) bool {
	raw, ok := a.bag[name]
	return ok && string(raw) != "null"
}

// rand is the component's own RNG stream.
func (a *args) rand() *rng.Stream { return rng.Derive(a.seed, a.path) }

// arg reads key name as a T: the Go type its KeyType decodes to.
func arg[T any](a *args, name string) T {
	v, _ := a.get(name).(T)
	return v
}

// get decodes key name by its declared type, range-checks a number or a
// duration, and builds a child object under its path.
func (a *args) get(name string) any {
	k := a.c.key(name)
	if a.err != nil {
		return nil
	}
	raw, ok := a.bag[name]
	if !ok || k.Type != KeyScalar && !a.has(name) { // null is absent, except as the NULL value
		if k.Required {
			a.fail("needs %s", name)
			return nil
		}
		raw = nil
	}
	decode := func(into any) {
		if raw != nil {
			if err := json.Unmarshal(raw, into); err != nil {
				a.fail("%s: %v", name, err)
			}
		}
	}
	switch k.Type {
	case KeyFloat:
		var f float64
		decode(&f)
		a.check(k, f)
		return f
	case KeyInt:
		var n int
		decode(&n)
		a.check(k, float64(n))
		return n
	case KeyBool:
		var b bool
		decode(&b)
		return b
	case KeyText:
		var s string
		decode(&s)
		if k.Enum != nil && !slices.Contains(k.Enum, s) {
			a.fail("%s %q is not one of %s", name, s, strings.Join(k.Enum, " "))
		} else if k.Required && s == "" {
			a.fail("needs %s", name)
		}
		return s
	case KeyTexts:
		var ss []string
		decode(&ss)
		if len(ss) == 0 {
			a.fail("%s is empty", name)
		}
		return ss
	case KeyDuration:
		var s string
		decode(&s)
		d, err := time.ParseDuration(s)
		if err != nil {
			a.fail("%s: %v", name, err)
		}
		a.check(k, float64(d))
		return d
	case KeyInstant:
		var s string
		decode(&s)
		t, err := parseTime(s)
		if err != nil {
			a.fail("%s: %v", name, err)
		}
		return t
	case KeyScalar:
		v, err := parseValueJSON(raw)
		if err != nil {
			a.fail("%s: %v", name, err)
		}
		return v
	case KeyParam:
		var f float64
		if json.Unmarshal(raw, &f) == nil {
			return Const(f)
		}
		return a.child(k, RoleParam, raw, a.path+k.sub())
	case KeyPattern:
		return a.child(k, RolePattern, raw, a.path+k.sub())
	case KeyCondition:
		return a.child(k, RoleCondition, raw, a.path+k.sub())
	}
	var raws []json.RawMessage
	decode(&raws)
	if len(raws) == 0 {
		a.fail("%s is empty", name)
	}
	if k.Type == KeyConditions {
		return children[Condition](a, k, RoleCondition, raws)
	}
	return children[ErrorFunc](a, k, RoleError, raws)
}

// children builds a list of child objects under path/<index>.
func children[T any](a *args, k *Key, role Role, raws []json.RawMessage) []T {
	out := make([]T, len(raws))
	for i, raw := range raws {
		out[i], _ = a.child(k, role, raw, fmt.Sprintf("%s/%d", a.path, i)).(T)
	}
	return out
}

func (k *Key) sub() string {
	if k.Sub != "" {
		return k.Sub
	}
	return "/" + k.Name
}

// child builds the object raw holds; its own error is reported as is.
func (a *args) child(k *Key, role Role, raw json.RawMessage, path string) any {
	var b Bag
	if err := json.Unmarshal(raw, &b); err != nil {
		a.fail("%s: %v", k.Name, err)
		return nil
	}
	v, err := Build(role, b, a.seed, path)
	if err != nil && a.err == nil {
		a.err = err
	}
	return v
}

// check fails unless v lies in k's range: "<key> <v> outside <range>".
func (a *args) check(k *Key, v float64) {
	r := k.Range
	if r == nil || (v > r.Lo || v == r.Lo && !r.Open) && v <= r.Hi {
		return
	}
	show := func(x float64) string {
		switch {
		case math.IsInf(x, 1):
			return "∞"
		case k.Type == KeyDuration:
			return time.Duration(x).String()
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	bounds := show(r.Lo) + "-" + show(r.Hi)
	if k.Type != KeyInt {
		lo, hi := "[", "]"
		if r.Open {
			lo = "("
		}
		if math.IsInf(r.Hi, 1) {
			hi = ")"
		}
		bounds = lo + show(r.Lo) + ", " + show(r.Hi) + hi
	}
	a.fail("%s %s outside %s", k.Name, show(v), bounds)
}

// parseValueJSON maps a raw JSON scalar onto a stream.Value: numbers to
// float, strings to string (or time when RFC3339), booleans to bool, and
// null to NULL.
func parseValueJSON(raw json.RawMessage) (stream.Value, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return stream.Null(), err
	}
	switch x := v.(type) {
	case nil:
		return stream.Null(), nil
	case float64:
		return stream.Float(x), nil
	case bool:
		return stream.Bool(x), nil
	case string:
		if t, err := time.Parse(time.RFC3339, x); err == nil {
			return stream.Time(t), nil
		}
		return stream.Str(x), nil
	}
	return stream.Null(), fmt.Errorf("unsupported JSON value %s", string(raw))
}

// parseTime parses an RFC3339 timestamp; the empty string maps to the
// zero time (unbounded interval edge).
func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad timestamp %q: %w", s, err)
	}
	return t, nil
}
