package shard

import (
	"testing"

	"trimcaching/internal/rng"
)

// BenchmarkShardCheckpoint times one steady-state Engine.Checkpoint at the
// serve-sharded shape: NewScaleBenchConfig(6000, 16, 250, 4) — 6000 users,
// 16 servers in 4 cells, 250 LoRA models — serving traces at 4 requests per
// user per hour, on one cell worker and one measurement worker, after two
// warm-up checkpoints. Besides ns per checkpoint it reports the handoffs
// per checkpoint, the per-revision work the plan phase hands each cell.
// Profile the handoff path with
//
//	go test -run '^$' -bench ShardCheckpoint -cpuprofile cpu.prof ./internal/shard
func BenchmarkShardCheckpoint(b *testing.B) {
	cfg, err := NewScaleBenchConfig(6000, 16, 250, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Trace = &TraceConfig{RequestsPerUserPerHour: 4}
	cfg.Workers, cfg.MeasureWorkers = 1, 1
	e, err := NewEngine(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	cp := 0
	for ; cp < 2; cp++ {
		if _, err := e.Checkpoint(cp + 1); err != nil {
			b.Fatal(err)
		}
	}
	handoffs := e.Handoffs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cp++
		if _, err := e.Checkpoint(cp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Handoffs()-handoffs)/float64(b.N), "handoffs/op")
}
