// Package lru provides a small, concurrency-safe, bounded LRU cache used
// by the prediction engine to memoize analyses (not decoded blocks: an
// entry keeps only what its analysis returns). It models no part of the
// paper — it is serving infrastructure for the §1 use cases
// (superoptimizer loops, bulk evaluation, services) where the same blocks
// recur. It is deliberately minimal: fixed capacity, strict
// least-recently-used eviction, and a GetOrAdd primitive that lets callers
// implement single-flight computation on top of cached entries.
//
// Two serving-tier extensions ride on the same core: Sharded splits one
// logical cache into a power-of-two number of independently locked shards
// (hash-routed keys), so warm high-parallelism lookups scale instead of
// serializing on a single mutex; and an optional byte budget (NewWithBytes
// with SetSize accounting) bounds memory. Per-shard atomic
// hit/miss counters are summed on read (Stats), keeping accounting race-free
// without a shared counter cache line.
package lru
