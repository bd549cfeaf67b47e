#include "util/thread_pool.h"

#include <algorithm>
#include <array>
#include <chrono>

namespace lpa {

namespace {

thread_local bool t_on_worker = false;

/// How long an idle worker polls for new regions before it sleeps.
constexpr std::chrono::nanoseconds kSpinNanos{50'000};

/// Chunks per region: one bit each in Region::claimed.
constexpr size_t kMaxChunks = 64;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Busy-waits for `done()`: briefly with pause instructions, then yielding
/// the core, since the thread it waits for may have been preempted.
template <class Done>
void WaitUntil(const Done& done) {
  for (int spins = 0; !done(); ++spins) {
    if (spins < 256) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

/// One slot for a posted ParallelFor. The slots belong to the pool, so a
/// worker may touch any slot's atomics at any time; it reads the other fields
/// only while it is counted in `users` and `state` still shows the region it
/// saw posted. The caller rewrites the fields only after the slot went back
/// to free, which it does only after `users` dropped to zero.
/// Idle workers poll `state`, so it has a cache line of its own, as do the
/// counters every participant updates and the fields the caller writes.
struct ThreadPool::Region {
  /// 0 when free; otherwise generation << 2 | phase.
  alignas(64) std::atomic<uint64_t> state{0};
  alignas(64) std::atomic<int> users{0};
  alignas(64) std::atomic<uint64_t> claimed{0};  ///< bit c: chunk c is taken
  std::atomic<size_t> done{0};                   ///< chunks finished
  alignas(64) size_t n = 0;
  size_t chunk = 1;
  size_t num_chunks = 0;
  const std::function<void(size_t, size_t)>* fn = nullptr;

  static constexpr uint64_t kFilling = 1;  ///< the caller writes the fields
  static constexpr uint64_t kOpen = 2;     ///< chunks may be claimed
  static constexpr uint64_t kClosing = 3;  ///< waiting for users to leave

  static bool IsOpen(uint64_t s) { return (s & 3) == kOpen; }

  bool Claim(size_t c) {
    const uint64_t bit = uint64_t{1} << c;
    if (claimed.load(std::memory_order_relaxed) & bit) return false;
    return (claimed.fetch_or(bit, std::memory_order_acq_rel) & bit) == 0;
  }

  void Run(size_t c) {
    const size_t begin = c * chunk;
    (*fn)(begin, std::min(n, begin + chunk));
    done.fetch_add(1, std::memory_order_release);
  }

  /// Runs chunk `own` unless another participant took it, then every chunk
  /// still unclaimed, lowest first. A thread without a chunk of its own in
  /// this region does nothing. True if it ran a chunk.
  bool RunChunks(size_t own) {
    if (own >= num_chunks) return false;
    bool ran = false;
    if (Claim(own)) {
      Run(own);
      ran = true;
    }
    for (size_t c = 0; c < num_chunks; ++c) {
      if (Claim(c)) {
        Run(c);
        ran = true;
      }
    }
    return ran;
  }
};

ThreadPool::ThreadPool(int workers)
    : regions_(std::make_unique<Region[]>(kMaxRegions)) {
  workers_.reserve(static_cast<size_t>(std::max(workers, 0)));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this, i]() { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  // With zero workers, tasks submitted but never helped must still run so
  // their futures don't dangle.
  while (!queue_.empty()) {
    auto task = std::move(queue_.front());
    queue_.pop_front();
    task();
  }
}

bool ThreadPool::OnWorkerThread() { return t_on_worker; }

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
}

bool ThreadPool::RunQueuedTask() {
  if (queued_.load(std::memory_order_relaxed) == 0) return false;
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    queued_.fetch_sub(1, std::memory_order_relaxed);
  }
  task();
  return true;
}

bool ThreadPool::HelpRegions(size_t index, uint64_t* seen) {
  bool ran = false;
  for (size_t s = 0; s < kMaxRegions; ++s) {
    Region& r = regions_[s];
    const uint64_t state = r.state.load(std::memory_order_acquire);
    if (!Region::IsOpen(state) || state == seen[s]) continue;
    seen[s] = state;
    // Counted in users before re-reading state, so the caller cannot free
    // the slot between this check and the reads of its fields (the caller
    // stores the closing state, then loads users).
    r.users.fetch_add(1, std::memory_order_seq_cst);
    if (r.state.load(std::memory_order_seq_cst) == state) {
      ran = r.RunChunks(index + 1) || ran;
    }
    r.users.fetch_sub(1, std::memory_order_release);
  }
  return ran;
}

bool ThreadPool::HasUnseenRegion(const uint64_t* seen) const {
  for (size_t s = 0; s < kMaxRegions; ++s) {
    const uint64_t state = regions_[s].state.load(std::memory_order_seq_cst);
    if (Region::IsOpen(state) && state != seen[s]) return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t index) {
  t_on_worker = true;
  std::array<uint64_t, kMaxRegions> seen{};
  using Clock = std::chrono::steady_clock;
  Clock::time_point idle_since = Clock::now();
  for (;;) {
    if (HelpRegions(index, seen.data()) || RunQueuedTask()) {
      idle_since = Clock::now();
      continue;
    }
    if (!stop_.load(std::memory_order_relaxed) &&
        Clock::now() - idle_since < kSpinNanos) {
      CpuRelax();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_relaxed) && queue_.empty()) return;
    // Registered as a sleeper before looking for work one last time: a
    // caller posts its region, then loads sleepers_, so either this check
    // sees the region or the caller sees this sleeper and wakes it.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (queue_.empty() && !HasUnseenRegion(seen.data())) {
      const uint64_t epoch = wake_epoch_;
      cv_.wait(lock, [&]() {
        return stop_.load(std::memory_order_relaxed) || !queue_.empty() ||
               wake_epoch_ != epoch;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    idle_since = Clock::now();
  }
}

void ThreadPool::ParallelFor(size_t n, size_t min_chunk,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  min_chunk = std::max<size_t>(min_chunk, 1);
  const size_t parallelism = static_cast<size_t>(num_workers()) + 1;
  size_t num_chunks = std::min({parallelism, kMaxChunks,
                                (n + min_chunk - 1) / min_chunk});
  if (num_chunks <= 1) {
    fn(0, n);
    return;
  }
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  num_chunks = (n + chunk - 1) / chunk;

  Region* region = nullptr;
  const uint64_t generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  for (size_t s = 0; s < kMaxRegions && region == nullptr; ++s) {
    uint64_t expected = 0;
    if (regions_[s].state.compare_exchange_strong(
            expected, generation << 2 | Region::kFilling,
            std::memory_order_acquire, std::memory_order_relaxed)) {
      region = &regions_[s];
    }
  }
  if (region == nullptr) {  // every slot is taken: run inline
    for (size_t begin = 0; begin < n; begin += chunk) {
      fn(begin, std::min(n, begin + chunk));
    }
    return;
  }
  region->n = n;
  region->chunk = chunk;
  region->num_chunks = num_chunks;
  region->fn = &fn;
  region->claimed.store(0, std::memory_order_relaxed);
  region->done.store(0, std::memory_order_relaxed);
  region->state.store(generation << 2 | Region::kOpen,
                      std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++wake_epoch_;
    }
    cv_.notify_all();
  }

  region->RunChunks(0);
  // Every chunk is claimed; any still running belong to workers and finish
  // within one chunk's work.
  WaitUntil([region, num_chunks]() {
    return region->done.load(std::memory_order_acquire) == num_chunks;
  });
  region->state.store(generation << 2 | Region::kClosing,
                      std::memory_order_seq_cst);
  WaitUntil([region]() {
    return region->users.load(std::memory_order_seq_cst) == 0;
  });
  region->state.store(0, std::memory_order_release);
}

}  // namespace lpa
