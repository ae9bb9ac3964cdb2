package config

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/csvio"
	"icewafl/internal/stream"
)

// This file draws random valid configuration documents from core's
// component table and checks the contract sentence over each: for a
// given (input, config, seed), every execution shape Stream accepts
// yields the bytes of the RunStream reference.

var genSchema = stream.MustSchema("ts",
	stream.Field{Name: "ts", Kind: stream.KindTime},
	stream.Field{Name: "sensor", Kind: stream.KindString},
	stream.Field{Name: "v", Kind: stream.KindFloat},
	stream.Field{Name: "n", Kind: stream.KindInt},
	stream.Field{Name: "cat", Kind: stream.KindString},
)

var genStart = time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)

// genSource is a document's input: n tuples 17 minutes apart over five
// sensors, with one v in ten NULL. Every call yields the same stream.
func genSource(seed int64, n int) stream.Source {
	r := rand.New(rand.NewSource(seed))
	rows := make([][]stream.Value, n)
	for i := range rows {
		v := stream.Float(float64(r.Intn(2000)) / 20)
		if r.Intn(10) == 0 {
			v = stream.Null()
		}
		rows[i] = []stream.Value{
			stream.Time(genStart.Add(time.Duration(i) * 17 * time.Minute)),
			stream.Str(fmt.Sprintf("s%d", r.Intn(5))),
			v,
			stream.Int(int64(r.Intn(100))),
			stream.Str([]string{"a", "b", "c"}[r.Intn(3)]),
		}
	}
	return stream.NewGeneratorSource(genSchema, n, func(i int) stream.Tuple {
		return stream.NewTuple(genSchema, append([]stream.Value(nil), rows[i]...))
	})
}

// gen draws one document. seen collects what it drew: component names,
// polluter kinds and routes.
type gen struct {
	r     *rand.Rand
	names int
	seen  map[string]bool
}

func raw(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func genDocument(r *rand.Rand, seen map[string]bool) *Document {
	g := &gen{r: r, seen: seen}
	doc := &Document{Seed: r.Int63n(1 << 20)}
	m := 1
	if r.Intn(3) == 0 {
		m = 2 + r.Intn(2)
		doc.Route = []string{"all", "round_robin", "by:sensor"}[r.Intn(3)]
		seen["route:"+doc.Route] = true
	}
	for i := 0; i < m; i++ {
		var ps PipelineSpec
		for j := 1 + r.Intn(4); j > 0; j-- {
			ps.Polluters = append(ps.Polluters, g.polluter(0))
		}
		doc.Pipelines = append(doc.Pipelines, ps)
	}
	return doc
}

// polluter draws a standard polluter or, one time in ten each while
// depth < 2, a composite in any mode or a keyed polluter; keyed ones stay
// rare because one anywhere makes the columnar plan row-wise. Polluters
// write v, n and cat only: the key attribute routes shards, and keyed
// polluters must see it unchanged.
func (g *gen) polluter(depth int) PolluterSpec {
	g.names++
	p := PolluterSpec{Name: fmt.Sprintf("p%d", g.names)}
	kind := g.r.Intn(10)
	switch {
	case kind == 0 && depth < 2:
		p.Type = "composite"
		p.Mode = []string{"sequence", "choice", "weighted"}[g.r.Intn(3)]
		for c := 1 + g.r.Intn(3); c > 0; c-- {
			p.Children = append(p.Children, g.polluter(depth+1))
			if p.Mode == "weighted" {
				p.Weights = append(p.Weights, float64(g.r.Intn(4)))
			}
		}
		if p.Mode == "weighted" {
			p.Weights[0]++
		}
		g.seen["composite:"+p.Mode] = true
	case kind == 1 && depth < 2:
		p.Type = "keyed"
		p.KeyAttr = "sensor"
		t := g.polluter(depth + 1)
		p.Template = &t
		g.seen["keyed"] = true
		return p
	default:
		p.Error = g.component(core.RoleError, 0)
		for _, a := range []string{"v", "n", "cat"} {
			if g.r.Intn(2) == 0 {
				p.Attrs = append(p.Attrs, a)
			}
		}
	}
	if g.r.Intn(4) != 0 {
		p.Condition = g.component(core.RoleCondition, 0)
	}
	return p
}

// component draws a named table entry of the role, sets every required
// key and each optional one with probability 1/2, and redraws until the
// table builds it: cross-key rules (clamp_lo ≤ clamp_hi, from_hour ≠
// to_hour, p or p_param) are the table's, not the generator's. From
// depth 3 on it draws no entry that nests another.
func (g *gen) component(role core.Role, depth int) core.Bag {
	var pool []core.Component
	for _, c := range core.Components() {
		if c.Role == role && c.Name != "" && (depth < 3 || !nests(c)) {
			pool = append(pool, c)
		}
	}
	for try := 0; try < 1000; try++ {
		c := pool[g.r.Intn(len(pool))]
		b := core.Bag{"type": raw(c.Name)}
		for _, k := range c.Keys {
			if k.Required || g.r.Intn(2) == 0 {
				b[k.Name] = raw(g.value(k, depth))
			}
		}
		if _, err := core.Build(role, b, 0, "gen"); err == nil {
			g.seen[c.Name] = true
			return b
		}
	}
	panic(fmt.Sprintf("no valid %s drawn in 1000 tries", role))
}

func nests(c core.Component) bool {
	for _, k := range c.Keys {
		switch k.Type {
		case core.KeyCondition, core.KeyConditions, core.KeyErrors:
			return true
		}
	}
	return false
}

// value draws a value of k's type inside its range.
func (g *gen) value(k core.Key, depth int) any {
	r := g.r
	switch k.Type {
	case core.KeyFloat:
		if k.Range != nil {
			lo, hi := k.Range.Lo, math.Min(k.Range.Hi, k.Range.Lo+10)
			return lo + (hi-lo)*float64(1+r.Intn(20))/20
		}
		return float64(r.Intn(81)-40) / 8
	case core.KeyInt:
		if k.Range != nil {
			lo, hi := int(k.Range.Lo), int(math.Min(k.Range.Hi, k.Range.Lo+10))
			return lo + r.Intn(hi-lo+1)
		}
		return r.Intn(5) - 1
	case core.KeyBool:
		return r.Intn(2) == 0
	case core.KeyText:
		if k.Enum != nil {
			return k.Enum[r.Intn(len(k.Enum))]
		}
		return genSchema.Field(r.Intn(genSchema.Len())).Name
	case core.KeyTexts:
		cats := []string{"a", "b", "c", "zz"}
		return cats[:1+r.Intn(len(cats))]
	case core.KeyDuration:
		d := time.Duration(r.Intn(240)) * time.Minute
		switch {
		case k.Range == nil:
			d -= 2 * time.Hour
		case k.Range.Open:
			d += time.Minute
		}
		return d.String()
	case core.KeyInstant:
		return genStart.Add(time.Duration(r.Intn(150*60)-120) * time.Minute).Format(time.RFC3339)
	case core.KeyScalar:
		return []any{float64(r.Intn(100)), "a", true, nil, genStart.Add(time.Duration(r.Intn(100)) * time.Hour).Format(time.RFC3339)}[r.Intn(5)]
	case core.KeyParam:
		if r.Intn(2) == 0 {
			return float64(r.Intn(41)-10) / 4
		}
		return g.component(core.RoleParam, depth+1)
	case core.KeyPattern:
		return g.component(core.RolePattern, depth+1)
	case core.KeyCondition:
		return g.component(core.RoleCondition, depth+1)
	}
	role := core.RoleCondition
	if k.Type == core.KeyErrors {
		role = core.RoleError
	}
	list := make([]core.Bag, 1+r.Intn(3))
	for i := range list {
		list[i] = g.component(role, depth+1)
	}
	return list
}

// keyedOn wraps every top-level polluter as keyed on attr, the form the
// sharded runner accepts.
func keyedOn(doc *Document, attr string) *Document {
	out := *doc
	out.Pipelines = []PipelineSpec{{Name: doc.Pipelines[0].Name}}
	for _, p := range doc.Pipelines[0].Polluters {
		p := p
		out.Pipelines[0].Polluters = append(out.Pipelines[0].Polluters,
			PolluterSpec{Name: p.Name, Type: "keyed", KeyAttr: attr, Template: &p})
	}
	return &out
}

// headSource emits the first n tuples of its source.
type headSource struct {
	stream.Source
	n int
}

func (h *headSource) Next() (stream.Tuple, error) {
	if h.n <= 0 {
		return stream.Tuple{}, io.EOF
	}
	h.n--
	return h.Source.Next()
}

// drain writes src as CSV (without header for a resumed run's tail).
func drain(t *testing.T, buf *bytes.Buffer, src stream.Source, header bool) {
	t.Helper()
	w := csvio.NewWriter(buf, genSchema)
	if !header {
		w.OmitHeader()
	}
	if _, err := stream.Copy(w, src); err != nil {
		t.Fatal(err)
	}
}

func writeLogs(t *testing.T, buf *bytes.Buffer, logs ...*core.Log) [sha256.Size]byte {
	t.Helper()
	for _, l := range logs {
		if err := l.WriteJSON(buf); err != nil {
			t.Fatal(err)
		}
	}
	return sha256.Sum256(buf.Bytes())
}

func mustBuild(t *testing.T, doc *Document) *core.Process {
	t.Helper()
	proc, err := Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

// checkShapes draws the document of seed and runs it, and its keyed
// wrapping when it has one pipeline, through every shape of reorder
// {1, 8} × shards {1, 3} × columnar × checkpoint that Validate and the
// pipeline-count rule accept, plus a resume at a random boundary and a
// config → JSON → config round trip. Each must yield the RunStream
// reference's sha256(dirty CSV ‖ log JSONL) at the same reorder.
func checkShapes(t *testing.T, seed int64, seen map[string]bool) {
	r := rand.New(rand.NewSource(seed))
	plain := genDocument(r, seen)
	n := 200 + r.Intn(300)
	src := func() stream.Source { return genSource(seed, n) }
	text, err := json.MarshalIndent(plain, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if t.Failed() {
			t.Logf("seed %d, %d tuples, document:\n%s", seed, n, text)
		}
	}()

	variants := []*Document{plain}
	if len(plain.Pipelines) == 1 {
		variants = append(variants, keyedOn(plain, "sensor"))
	}
	for vi, doc := range variants {
		ref := map[int][sha256.Size]byte{}
		for _, reorder := range []int{1, 8} {
			out, log, err := mustBuild(t, doc).RunStream(src(), reorder)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			drain(t, &buf, out, true)
			ref[reorder] = writeLogs(t, &buf, log)
		}
		for _, reorder := range []int{1, 8} {
			for _, shards := range []int{1, 3} {
				for _, columnar := range []bool{false, true} {
					for _, checkpoint := range []bool{false, true} {
						spec := core.StreamSpec{Reorder: reorder, Shards: shards, ShardKey: "sensor", Columnar: columnar, Checkpoint: checkpoint}
						plainShape := shards == 1 && !columnar && !checkpoint
						if spec.Validate(genSchema) != nil || shards > 1 && vi == 0 || len(doc.Pipelines) > 1 && !plainShape {
							continue
						}
						run, err := mustBuild(t, doc).Stream(src(), spec)
						if err != nil {
							t.Fatalf("variant %d, %+v: %v", vi, spec, err)
						}
						var buf bytes.Buffer
						drain(t, &buf, run.Source, true)
						if writeLogs(t, &buf, run.Log) != ref[reorder] {
							t.Errorf("variant %d, %+v: digest differs from the RunStream reference", vi, spec)
						}
						if !checkpoint {
							continue
						}
						head, err := mustBuild(t, doc).Stream(src(), spec)
						if err != nil {
							t.Fatal(err)
						}
						buf.Reset()
						at := r.Intn(n + 1)
						drain(t, &buf, &headSource{Source: head.Source, n: at}, true)
						ckpt, err := head.Checkpointer.Capture()
						if err != nil {
							t.Fatal(err)
						}
						spec.Resume = ckpt
						tail, err := mustBuild(t, doc).Stream(src(), spec)
						if err != nil {
							t.Fatal(err)
						}
						drain(t, &buf, tail.Source, false)
						if writeLogs(t, &buf, head.Log, tail.Log) != ref[reorder] {
							t.Errorf("variant %d: resumed after %d tuples, digest differs from the RunStream reference", vi, at)
						}
					}
				}
			}
		}
		if vi > 0 {
			continue
		}
		// The document survives config → JSON → config unchanged.
		back, err := Parse(bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		again, err := json.MarshalIndent(back, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, text) {
			t.Errorf("JSON round trip changed the document:\n%s", again)
		}
		out, log, err := mustBuild(t, back).RunStream(src(), 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		drain(t, &buf, out, true)
		if writeLogs(t, &buf, log) != ref[1] {
			t.Error("the round-tripped document's digest differs from the original's")
		}
	}
}

// TestShapeEquivalenceGenerated is the contract sentence over generated
// pipelines: 80 documents, each through every shape (see checkShapes).
// Together they must draw every named component of the table, every
// composite mode, a keyed polluter and all three route kinds.
func TestShapeEquivalenceGenerated(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 80; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkShapes(t, seed, seen) })
	}
	want := []string{"composite:sequence", "composite:choice", "composite:weighted", "keyed",
		"route:all", "route:round_robin", "route:by:sensor"}
	for _, c := range core.Components() {
		if c.Name != "" && c.Role != core.RolePolluter {
			want = append(want, c.Name)
		}
	}
	var missing []string
	for _, w := range want {
		if !seen[w] {
			missing = append(missing, w)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("the generated documents never drew: %s", strings.Join(missing, ", "))
	}
}

// FuzzShapeEquivalence runs checkShapes over arbitrary generator seeds.
func FuzzShapeEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) { checkShapes(t, seed, map[string]bool{}) })
}
