package stream_test

import (
	"fmt"
	"time"

	"icewafl/internal/stream"
)

// ExampleNewGeneratorSource generates a small stream, drains it, and
// transforms and filters the drained tuples.
func ExampleNewGeneratorSource() {
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "celsius", Kind: stream.KindFloat},
	)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	src := stream.NewGeneratorSource(schema, 4, func(i int) stream.Tuple {
		return stream.NewTuple(schema, []stream.Value{
			stream.Time(start.Add(time.Duration(i) * time.Hour)),
			stream.Float(float64(10 * i)), // 0, 10, 20, 30
		})
	})
	tuples, _ := stream.Drain(src)
	for _, t := range tuples {
		c, _ := t.GetFloat("celsius")
		if f := c*9/5 + 32; f > 50 {
			fmt.Println(f)
		}
	}
	// Output:
	// 68
	// 86
}

// ExampleSplit partitions a stream into sub-streams, the mechanism
// behind Algorithm 1's overlapping sub-stream extraction.
func ExampleSplit() {
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "n", Kind: stream.KindInt},
	)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	src := stream.NewGeneratorSource(schema, 6, func(i int) stream.Tuple {
		return stream.NewTuple(schema, []stream.Value{
			stream.Time(start.Add(time.Duration(i) * time.Second)),
			stream.Int(int64(i)),
		})
	})
	subs := stream.Split(src, 2, stream.RouteRoundRobin())
	a, _ := stream.Drain(subs[0])
	b, _ := stream.Drain(subs[1])
	fmt.Println("sub 0:", len(a), "tuples; sub 1:", len(b), "tuples")
	// Output:
	// sub 0: 3 tuples; sub 1: 3 tuples
}
