#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace lpa::rl {

/// \brief One experience-replay transition (s, a, r, s').
struct Transition {
  std::vector<double> state_enc;
  int action_id = -1;
  double reward = 0.0;
  std::vector<double> next_enc;
  /// Legal action ids at s' (needed for max_a' Q(s', a')).
  std::vector<int> next_legal;
};

/// \brief Fixed-capacity ring buffer with uniform sampling.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity) : capacity_(capacity) {}

  void Add(Transition t);
  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }

  /// \brief Sample `count` transitions uniformly with replacement.
  std::vector<const Transition*> Sample(size_t count, Rng* rng) const;
  /// \brief The same draws into `out` (cleared first; its capacity is
  /// reused).
  void Sample(size_t count, Rng* rng,
              std::vector<const Transition*>* out) const;

  /// \brief Direct access for tests (index is storage order, not age order).
  const Transition& at(size_t i) const { return buffer_[i]; }

 private:
  size_t capacity_;
  size_t next_ = 0;
  std::vector<Transition> buffer_;
};

/// \brief Bounded single-producer/single-consumer transition ring.
///
/// One actor slot owns the producer side, the learner owns the consumer
/// side; within the shard the hand-off is lock-free (two atomic cursors with
/// acquire/release ordering, no mutex, no CAS loop). TryPush publishes the
/// slot write before the tail advance; TryPop consumes it before the head
/// advance — the classic SPSC contract, TSan-clean by construction.
class ReplayShard {
 public:
  explicit ReplayShard(size_t capacity) : slots_(capacity) {}

  ReplayShard(const ReplayShard&) = delete;
  ReplayShard& operator=(const ReplayShard&) = delete;

  /// \brief Producer side: false when the ring is full.
  bool TryPush(Transition t);
  /// \brief Producer side: spin-yield until space frees up (backpressure
  /// against a slow learner; the stalled time shows up as lost actor
  /// utilization, not as a deadlock — the learner always drains).
  void Push(Transition t);

  /// \brief Consumer side: false when the ring is empty.
  bool TryPop(Transition* out);

  /// \brief Queue depth. Exact only for the owning side or when producer and
  /// consumer are externally synchronized (e.g. at a round barrier).
  size_t size() const {
    return static_cast<size_t>(tail_.load(std::memory_order_acquire) -
                               head_.load(std::memory_order_acquire));
  }
  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<Transition> slots_;
  std::atomic<uint64_t> head_{0};  ///< consumer cursor (next pop)
  std::atomic<uint64_t> tail_{0};  ///< producer cursor (next push)
};

/// \brief Sharded replay staging area: one SPSC `ReplayShard` per logical
/// actor slot. Actors push into their own shard without ever contending with
/// each other; the learner drains the shards into its central `ReplayBuffer`.
///
/// Determinism contract: `DrainOrdered` empties the shards in slot order
/// 0..N-1, each shard FIFO — with the fixed actor→slot mapping of the
/// deterministic training mode this makes the merged transition sequence (and
/// therefore every downstream minibatch draw) independent of how many threads
/// executed the actors. `DrainAvailable` (fast mode) takes whatever is
/// visible without a barrier and guarantees nothing about order.
class ShardedReplayBuffer {
 public:
  ShardedReplayBuffer(int num_shards, size_t shard_capacity);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  ReplayShard* shard(int slot) { return shards_[static_cast<size_t>(slot)].get(); }

  /// \brief Producer entry: push into `slot`'s shard (blocks when full).
  void Push(int slot, Transition t) {
    shards_[static_cast<size_t>(slot)]->Push(std::move(t));
  }

  /// \brief Drain every shard to empty, slot order 0..N-1, FIFO within a
  /// shard. Caller must guarantee no concurrent producers (round barrier).
  /// Returns the number of transitions delivered to `sink`.
  size_t DrainOrdered(const std::function<void(Transition&&)>& sink);

  /// \brief Drain whatever each shard exposes right now, slot order, FIFO
  /// within a shard; safe with live producers. Returns transitions delivered.
  size_t DrainAvailable(const std::function<void(Transition&&)>& sink);

  /// \brief Sum of current shard depths (approximate under concurrency).
  size_t TotalSize() const;

  /// \brief Record every shard's current depth into the
  /// `rl.replay_shard_depth` telemetry histogram.
  void ObserveDepths() const;

 private:
  std::vector<std::unique_ptr<ReplayShard>> shards_;
};

}  // namespace lpa::rl
