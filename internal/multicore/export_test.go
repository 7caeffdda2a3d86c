package multicore

// The synthetic shard sets of multicore_test.go, for the external
// golden test.
func NewSpinWork(iters int) Workload   { return &spinWork{iters: iters} }
func NewStreamWork(bytes int) Workload { return &streamWork{bytes: bytes} }
