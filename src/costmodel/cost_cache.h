#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/hash.h"

namespace lpa::costmodel {

/// \brief Query cost memo: a fixed-size, sharded, open-addressing table from
/// 64-bit keys to costs.
///
/// Keys are opaque 64-bit fingerprints — callers encode (query, state
/// signature) pairs, e.g. `HashCombine(Hash64(query_index),
/// state.DesignFingerprint(query_tables))`. Any 64-bit value is a key, 0
/// included. The table is split into `kShards` shards, each guarded by its
/// own mutex, so concurrent probes from the parallel evaluation engine rarely
/// contend. A shard is a linear-probing array of (key, value) slots that
/// doubles as it fills, so its memory follows its entries.
///
/// Nothing is ever evicted. A shard holds at most `kShardCapacity` entries;
/// once it is full, inserting a new key is refused: `GetOrCompute` still
/// returns the computed value, and the refusal counts on
/// `costmodel.cost_cache_evictions.count`.
///
/// Concurrency contract: all methods are thread-safe. Two threads missing on
/// the same key at the same time may both compute the value; the second
/// insert finds the key stored and is dropped (benign duplicate work, never
/// an inconsistent memo). Cost values are deterministic functions of the
/// key, so whichever insert wins stores the same value.
///
/// Telemetry: misses and refused inserts are reported through
/// `costmodel.cost_cache_{misses,evictions}.count`; hits are tallied per
/// shard and read through `stats()`.
class CostCache {
 public:
  using Key = uint64_t;

  static constexpr size_t kShards = 16;
  static constexpr size_t kShardCapacity = 16384;
  /// Entries the memo holds at most (262,144).
  static constexpr size_t kCapacity = kShards * kShardCapacity;

  CostCache() = default;

  CostCache(const CostCache&) = delete;
  CostCache& operator=(const CostCache&) = delete;

  /// \brief The stored value of `key`, or `compute()` stored under it (when
  /// its shard has room). `compute` runs outside any shard lock, so it may
  /// itself be expensive or take locks.
  template <typename Compute>
  double GetOrCompute(Key key, Compute&& compute) {
    // Keys are already well-mixed fingerprints, but re-mixing keeps shards
    // and probe chains balanced even for structured keys (small integers).
    const uint64_t hash = Hash64(key);
    double value = 0.0;
    if (Find(key, hash, &value)) return value;
    value = compute();
    Store(key, hash, value);
    return value;
  }

  size_t size() const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;  ///< refused inserts into a full shard
  };
  Stats stats() const;

 private:
  struct Slot {
    Key key = 0;
    double value = 0.0;
  };
  /// Slots with key 0 are empty; key 0 itself lives in `zero_value`. Each
  /// shard has its own cache line, so threads probing different shards do
  /// not share one.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Slot> slots;  ///< power-of-two size, or empty
    size_t entries = 0;       ///< stored keys, key 0 included
    bool has_zero = false;
    double zero_value = 0.0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(uint64_t hash) { return shards_[hash & (kShards - 1)]; }
  /// The slot holding `key`, or the empty slot where it would go. `slots`
  /// must be non-empty and hold an empty slot.
  static Slot& Probe(std::vector<Slot>& slots, Key key, uint64_t hash);
  /// Doubles the shard's slot array (16 slots when empty) and re-inserts.
  static void Grow(Shard* shard);
  bool Find(Key key, uint64_t hash, double* value);
  void Store(Key key, uint64_t hash, double value);

  std::array<Shard, kShards> shards_;
};

}  // namespace lpa::costmodel
