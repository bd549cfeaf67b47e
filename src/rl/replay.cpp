#include "rl/replay.h"

#include <thread>
#include <utility>

#include "rl/trainer_metrics.h"
#include "util/logging.h"

namespace lpa::rl {

void ReplayBuffer::Add(Transition t) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(t));
  } else {
    buffer_[next_] = std::move(t);
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<const Transition*> ReplayBuffer::Sample(size_t count,
                                                    Rng* rng) const {
  std::vector<const Transition*> result;
  Sample(count, rng, &result);
  return result;
}

void ReplayBuffer::Sample(size_t count, Rng* rng,
                          std::vector<const Transition*>* out) const {
  LPA_CHECK(!buffer_.empty());
  out->clear();
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t idx = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(buffer_.size()) - 1));
    out->push_back(&buffer_[idx]);
  }
}

bool ReplayShard::TryPush(Transition t) {
  const uint64_t tail = tail_.load(std::memory_order_relaxed);
  const uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head == slots_.size()) return false;  // full
  slots_[tail % slots_.size()] = std::move(t);
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

void ReplayShard::Push(Transition t) {
  // Not TryPush-in-a-loop: a failed TryPush would have consumed `t`.
  for (;;) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head < slots_.size()) {
      slots_[tail % slots_.size()] = std::move(t);
      tail_.store(tail + 1, std::memory_order_release);
      return;
    }
    std::this_thread::yield();
  }
}

bool ReplayShard::TryPop(Transition* out) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head == tail) return false;  // empty
  *out = std::move(slots_[head % slots_.size()]);
  head_.store(head + 1, std::memory_order_release);
  return true;
}

ShardedReplayBuffer::ShardedReplayBuffer(int num_shards, size_t shard_capacity) {
  LPA_CHECK(num_shards >= 1);
  LPA_CHECK(shard_capacity >= 1);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<ReplayShard>(shard_capacity));
  }
}

size_t ShardedReplayBuffer::DrainOrdered(
    const std::function<void(Transition&&)>& sink) {
  size_t drained = 0;
  for (auto& shard : shards_) {
    Transition t;
    while (shard->TryPop(&t)) {
      sink(std::move(t));
      ++drained;
    }
  }
  return drained;
}

size_t ShardedReplayBuffer::DrainAvailable(
    const std::function<void(Transition&&)>& sink) {
  size_t drained = 0;
  for (auto& shard : shards_) {
    // Bound the take to the depth observed on entry so a fast producer
    // cannot pin the learner inside one shard while the others back up.
    size_t take = shard->size();
    Transition t;
    while (take-- > 0 && shard->TryPop(&t)) {
      sink(std::move(t));
      ++drained;
    }
  }
  return drained;
}

size_t ShardedReplayBuffer::TotalSize() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

void ShardedReplayBuffer::ObserveDepths() const {
  auto& histogram = internal::TrainerMetrics::Get().replay_shard_depth;
  for (const auto& shard : shards_) {
    histogram.Observe(static_cast<double>(shard->size()));
  }
}

}  // namespace lpa::rl
