// Package reis is the root of the REIS reproduction: a retrieval
// system for Retrieval-Augmented Generation with In-Storage Processing
// (ISCA 2025), rebuilt as a Go library with a functional NAND-flash /
// SSD simulation substrate.
//
// The engine (internal/reis) exposes the Table 1 vendor command set
// through an NVMe-style host interface: Engine.NewQueue creates an
// asynchronous submission/completion queue pair (SubmitAsync in, Wait
// out — the one way a completion leaves the pair — per-command context
// cancellation, depth-based admission control and equal-share stride
// scheduling across databases), and the synchronous Engine.Submit is a
// thin submit+wait wrapper over the engine's built-in pair. Batched
// admission and queue-side coalescing keep the flash planes busy across
// queries while a query's results and device stats stay bit-identical
// to its one-query command. Wait returns a completion only after its
// queue slot is free. See DESIGN.md ("Host queue model") for the
// architecture.
//
// Every search — flat or IVF, pruned or not, cached or not, one device
// or many — is one round-driven controller (internal/reis/controller.go)
// planning scan rounds from global state and running each on every
// device in place, ending in the one controller tail; a command reaches
// it through Submit or a queue pair's SubmitAsync and nowhere else
// (DESIGN.md, "Concurrency model").
//
// Both exported hosts are facades over one host core
// (internal/reis/host.go) that owns the database table, the journal,
// the queue registry and N ≥ 1 devices, and implements every host
// operation once: reis.New is one device and the core over it (N = 1),
// reis.NewSharded the same core over N devices (DESIGN.md, "Host
// core"). A device holds no host state, so a host holds one core. The on-flash page format — binary slots linked through
// a 9-byte OOB record to their INT8 copy and document — has one owner
// (internal/reis/layout.go: the slot geometry, the one renderer, the one
// parser), and the host is the one page writer: deploy, append and GC
// copy-forward all render a global page once and program it on the
// device that owns it (DESIGN.md, "Page format"). Sharding
// page-stripes one globally planned layout over the devices and runs
// the same controller and the same scan round —
// every device scans the pages it owns in place, the per-device TTL
// streams merge in global position order straight out of the worker
// arenas, and the tail runs over the merged stream — so results and
// aggregated device stats are bit-identical to a single device over
// the same data, and one timing model prices both (DESIGN.md, "Sharded
// topology").
//
// Deployed databases are mutable online: OpcodeAppend writes new
// items out-of-place into wear-leveled free rows (least-worn-first
// placement over reserved overprovision blocks and rows recycled by
// GC; ssd.ErrRegionFull on true exhaustion), OpcodeDelete tombstones
// entries in a controller-DRAM bitmap consulted by the controller
// tail, and OpcodeCompact runs the garbage collector as a background
// queue flight — per-row copy-forward steps interleaved with
// foreground searches under a QoS stride weight, every step boundary
// a consistent state, with write amplification and erase-skew
// reported in HostResponse.Wear. Compaction provably preserves search
// results even mid-flight, every committed mutation is recorded in an
// append-only journal whose prefixes rebuild the exact pre-crash
// state on a fresh deploy (Engine.ReplayJournal), and every mutation
// is bit-identical between a sharded topology and its single-device
// reference (DESIGN.md, "Mutability and garbage collection" and
// "Concurrent GC, wear leveling, and recovery").
//
// Above the engines, internal/serve is the replicated serving tier:
// serve.NewGroup replicates the corpus across N hosts (single-device
// or sharded), routes each search to one member by
// power-of-two-choices over queue occupancy, fails over on
// reis.ErrQueueFull with streak-based retirement and occupancy-based
// readmission, and broadcasts every mutation to all members under a
// barrier with cross-replica response verification — responses stay
// bit-identical no matter how many replicas serve them.
// serve.NewGateway wraps a group in a production HTTP layer:
// middleware chain (request IDs, bearer auth, per-tenant rate
// limiting, per-route metrics), NDJSON streaming for batches,
// 503 + Retry-After backpressure, and graceful drain (DESIGN.md,
// "Replicated serving and gateway"). A GET /search costs the host four
// allocations below net/http — the response's results, stats and one
// block of document bytes — and its controller tail reads only the INT8
// and document records it wants of a page, copied once (DESIGN.md,
// "Host-clock cost of a request").
//
// The timing model extends past averages into distributions:
// reis.SimulateLoad replays a deterministic Poisson arrival schedule
// (reis.PoissonArrivals) through a queue pair in virtual time, pricing
// each coalesced group from the per-query stats one batched command
// returned, and accumulates per-command modeled latency into a
// streaming quantile sketch (reis.LatencySketch, DDSketch-style with a
// guaranteed relative-error bound), so p50/p95/p99/p999 are bit-identical run to
// run and gate CI: cmd/benchdiff fails when modeled p99 under the
// pinned arrival rate regresses against the committed BENCH_*.json
// baseline (DESIGN.md, "Latency distributions and SLOs"). The
// recall-vs-latency frontier (reisbench -exp frontier) runs live
// HNSW/LSH/PQ-IVF indexes from internal/ann over the engine's own
// corpus and prices them with the DRAM cost models of internal/rivals
// against the flash engine's pruned and cached configurations.
//
// Runnable entry points are cmd/reisbench (regenerates every table and
// figure of the paper, plus the throughput, queue-depth, shard
// scale-out, pruning, caching, churn, SLO and frontier sweeps) and the
// examples/ directory (quickstart, tuning and multidb drive the library
// directly; examples/ragserver is the gateway over a replica group). The
// root-level benchmarks in bench_test.go drive the same experiment
// runners through `go test -bench`. README.md has the quickstart and
// the current results table.
package reis
