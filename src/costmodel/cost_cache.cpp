#include "costmodel/cost_cache.h"

#include <algorithm>

#include "telemetry/registry.h"

namespace lpa::costmodel {

namespace {

/// Hits are tallied per shard only (`CostCache::stats()`): a process-wide
/// counter bumped on every hit would be one more contended cache line per
/// probe.
struct CacheMetrics {
  telemetry::Counter& misses;
  telemetry::Counter& evictions;

  static CacheMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static CacheMetrics* m = new CacheMetrics{
        reg.GetCounter("costmodel.cost_cache_misses.count"),
        reg.GetCounter("costmodel.cost_cache_evictions.count")};
    return *m;
  }
};

}  // namespace

static_assert(CostCache::kShards == 16,
              "Probe skips the 4 low hash bits that pick the shard");

CostCache::Slot& CostCache::Probe(std::vector<Slot>& slots, Key key,
                                  uint64_t hash) {
  // The low bits of the hash chose the shard; the bits above pick the slot.
  const size_t mask = slots.size() - 1;
  size_t i = static_cast<size_t>(hash >> 4) & mask;
  while (slots[i].key != key && slots[i].key != 0) i = (i + 1) & mask;
  return slots[i];
}

void CostCache::Grow(Shard* shard) {
  std::vector<Slot> old(std::max<size_t>(16, 2 * shard->slots.size()));
  old.swap(shard->slots);
  for (const Slot& slot : old) {
    if (slot.key != 0) Probe(shard->slots, slot.key, Hash64(slot.key)) = slot;
  }
}

bool CostCache::Find(Key key, uint64_t hash, double* value) {
  Shard& shard = ShardFor(hash);
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (key == 0) {
      hit = shard.has_zero;
      *value = shard.zero_value;
    } else if (!shard.slots.empty()) {
      const Slot& slot = Probe(shard.slots, key, hash);
      hit = slot.key == key;
      *value = slot.value;
    }
    ++(hit ? shard.hits : shard.misses);
  }
  if (!hit) CacheMetrics::Get().misses.Add();
  return hit;
}

void CostCache::Store(Key key, uint64_t hash, double value) {
  Shard& shard = ShardFor(hash);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // A concurrent miss may have stored the key first.
    if (key == 0 ? shard.has_zero
                 : !shard.slots.empty() &&
                       Probe(shard.slots, key, hash).key == key) {
      return;
    }
    if (shard.entries < kShardCapacity) {
      ++shard.entries;
      if (key == 0) {
        shard.has_zero = true;
        shard.zero_value = value;
      } else {
        // At most half the slots are used, so every probe ends at an empty
        // slot; a full shard holds 16,384 entries in 32,768 slots.
        if (2 * shard.entries > shard.slots.size()) Grow(&shard);
        Probe(shard.slots, key, hash) = Slot{key, value};
      }
      return;
    }
    ++shard.evictions;
  }
  CacheMetrics::Get().evictions.Add();
}

size_t CostCache::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.entries;
  }
  return n;
}

CostCache::Stats CostCache::stats() const {
  Stats s;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.evictions += shard.evictions;
  }
  return s;
}

}  // namespace lpa::costmodel
