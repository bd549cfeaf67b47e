#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lpa::engine {

/// \brief Flat open-addressing multimap for the engine's local hash joins.
///
/// Replaces the `std::unordered_multimap<uint64_t, size_t>` build side of
/// `local_join`: keys are the 64-bit composite-key hashes (matching is by
/// hash equality, exactly like the multimap it replaces), values are build
/// row indices.
///
/// Layout: a power-of-two array of 4-byte slots probed linearly, one slot
/// per distinct key hash, each holding the first entry of that hash's
/// chain, plus one contiguous payload array of (hash, row, next) entries.
/// A probe compares the hash stored in the slot's first entry, which a hit
/// reads next anyway. Duplicate keys cost a single payload append that
/// prepends to the slot's chain — never a second probe sequence — so build
/// is O(rows) and a probe walks one contiguous chain. A build row costs 16
/// payload bytes plus 8–16 slot bytes.
///
/// The table is built serially and may then be probed concurrently from many
/// threads (`Find` is const and touches no shared mutable state; probe
/// counters are caller-owned out-params).
class JoinTable {
 public:
  /// Sentinel for "no entry"; also the capacity ceiling of the payload.
  static constexpr uint32_t kNone = 0xffffffffu;

  struct Entry {
    uint64_t hash;  ///< key hash of the row (the same along a chain)
    uint32_t row;   ///< build-side row index
    uint32_t next;  ///< next entry with the same key hash, or kNone
  };

  /// \brief Clear and size for `build_rows` insertions. Capacity is the
  /// smallest power of two >= 2 * build_rows (>= 16), so the load factor
  /// stays <= 0.5 and linear probe chains stay short.
  void Reset(size_t build_rows) {
    size_t cap = 16;
    while (cap < build_rows * 2) cap <<= 1;
    mask_ = cap - 1;
    slots_.assign(cap, kNone);
    entries_.clear();
    entries_.reserve(build_rows);
  }

  /// \brief Insert one build row under `hash`; `*probes` counts slot
  /// inspections (telemetry).
  void Insert(uint64_t hash, uint32_t row, uint64_t* probes) {
    size_t i = static_cast<size_t>(hash) & mask_;
    while (true) {
      ++*probes;
      uint32_t& head = slots_[i];
      if (head == kNone || entries_[head].hash == hash) {
        entries_.push_back(Entry{hash, row, head});
        head = static_cast<uint32_t>(entries_.size() - 1);
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// \brief Head of the entry chain for `hash`, or kNone. Walk the matches
  /// with `entry(e).next`. Safe to call concurrently after the build.
  uint32_t Find(uint64_t hash, uint64_t* probes) const {
    size_t i = static_cast<size_t>(hash) & mask_;
    while (true) {
      ++*probes;
      const uint32_t head = slots_[i];
      if (head == kNone || entries_[head].hash == hash) return head;
      i = (i + 1) & mask_;
    }
  }

  const Entry& entry(uint32_t e) const { return entries_[e]; }
  size_t size() const { return entries_.size(); }
  size_t capacity() const { return slots_.size(); }

 private:
  size_t mask_ = 0;
  /// First payload entry of each slot's chain, or kNone when empty.
  std::vector<uint32_t> slots_;
  std::vector<Entry> entries_;
};

}  // namespace lpa::engine
