package mobility

import (
	"fmt"
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

// BenchmarkWalkCheckpoint walks users through 10-minute checkpoints of 5 s
// slots in the 1264.9 m square of cmd/bench's mobility-fading workload and
// reports the cost per user-slot: at that workload's 6000 users, and at
// 100k, where the walkers no longer fit in cache.
func BenchmarkWalkCheckpoint(b *testing.B) {
	area, err := geom.NewArea(1264.9)
	if err != nil {
		b.Fatal(err)
	}
	for _, users := range []int{6000, 100_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			src := rng.New(1)
			w, err := NewWalk(area, area.SamplePoints(src.Split("users"), users), src, 10, 5)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*users*w.slots), "ns/user-slot")
		})
	}
}
