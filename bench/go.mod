// A module of its own so the repository's `go build ./... && go test ./...`
// never compiles or runs the benchmark. The import path stays under nodecap/,
// which is what lets it import nodecap/internal/...
module nodecap/bench

go 1.22

require nodecap v0.0.0

replace nodecap => ../
