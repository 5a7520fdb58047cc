package mobility

import (
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

// BenchmarkWalkCheckpoint walks the engine deployment of cmd/bench's
// mobility-fading workload (6000 users in a 1264.9 m square) through
// 10-minute checkpoints of 5 s slots and reports the cost per user-slot.
func BenchmarkWalkCheckpoint(b *testing.B) {
	const users = 6000
	area, err := geom.NewArea(1264.9)
	if err != nil {
		b.Fatal(err)
	}
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
}
