package shard

import (
	"testing"

	"memstream/internal/server"
)

// BenchmarkMillionStreamsPartition runs partition 0 of MillionStreams —
// 4096 direct-mode streams at 10 KB/s on one FutureDisk, so 4096-request
// C-LOOK batches — reusing one server.Arena the way a shard goroutine
// does. It is the unit of work the million-stream run repeats 245 times;
// make profile-scale profiles it.
func BenchmarkMillionStreamsPartition(b *testing.B) {
	seed := SeedFor(1, 0)
	cfg, err := MillionStreams().Build(0, seed)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seed = seed
	cfg.Arena = server.NewArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := server.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
