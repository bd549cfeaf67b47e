#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lpa {

/// \brief Fixed-size thread pool behind the parallel evaluation engine.
///
/// Deliberately work-stealing-free: a fixed set of workers serves two entry
/// points:
///
///  * Submit(fn)      — enqueue one task on a shared FIFO queue, get a
///                      std::future for its result.
///  * ParallelFor(..) — run an index range cooperatively and block until done.
///
/// ParallelFor is *caller-runs*: the caller posts the region in one of a few
/// pool-owned slots, runs chunk 0 itself, then every chunk no worker has
/// claimed yet, and waits only for chunks that workers are running. So a
/// ParallelFor issued from inside a pool task (nested parallelism), while
/// every worker is busy, or while every slot holds another caller's region
/// always makes progress and can never deadlock: the caller simply executes
/// all chunks inline.
///
/// Hand-off cost: a worker that finishes a task or a chunk keeps polling the
/// slots for kSpinNanos (50 us) before it sleeps on the queue's condition
/// variable. A region posted within that window is picked up in about a
/// microsecond with no system call, which is what lets the DQN learner split
/// a 100-400 us training step into regions of 10-40 us; a region that finds
/// every worker asleep costs the caller one wake-up call, and the workers
/// join about 10 us later. Between the learner's steps of online training,
/// where the engine's own pool runs queries for a millisecond or more, the
/// workers sleep instead of competing for its cores.
///
/// Determinism: ParallelFor assigns chunk c the fixed index range
/// [c*chunk, min(n, (c+1)*chunk)); which thread runs a chunk never affects
/// which indices it covers, so any computation whose chunks write disjoint
/// outputs is bit-identical at every thread count (including zero workers).
///
/// Affinity: chunk 0 is the caller's; chunk c >= 1 is worker c-1's, which
/// claims it first when it polls the region in time. A worker only joins a
/// region that has a chunk for it, and a participant that finished its own
/// chunk takes any chunk still unclaimed. So a region repeated with the same
/// shape, such as the learner's Adam slices, runs each chunk on the same
/// thread and finds its data in that core's cache whenever the workers are
/// idle.
class ThreadPool {
 public:
  /// \brief Spawn `workers` worker threads (0 is allowed: every ParallelFor
  /// then runs inline on the caller and Submit runs tasks on `Wait`-ers /
  /// the destructor — callers normally avoid 0 via EvalContext).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// \brief Enqueue one task; the future carries its return value.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// \brief Run fn(begin, end) over disjoint chunks covering [0, n), each at
  /// least `min_chunk` indices (except the last) and at most one per thread,
  /// and block until all chunks finished. The caller participates;
  /// chunk→range mapping is fixed, so results are independent of scheduling.
  void ParallelFor(size_t n, size_t min_chunk,
                   const std::function<void(size_t, size_t)>& fn);

  /// \brief Convenience element-wise form of ParallelFor.
  void ParallelForEach(size_t n, size_t min_chunk,
                       const std::function<void(size_t)>& fn) {
    ParallelFor(n, min_chunk, [&fn](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }

  /// \brief True on a pool worker thread (of any pool).
  static bool OnWorkerThread();

 private:
  struct Region;
  /// Slots for the regions posted at once; a ParallelFor that finds all of
  /// them taken runs inline.
  static constexpr size_t kMaxRegions = 8;

  void Enqueue(std::function<void()> task);
  void WorkerLoop(size_t index);
  /// Runs one queued task, if any.
  bool RunQueuedTask();
  /// Joins each newly posted region that has a chunk for worker `index`;
  /// `seen` holds the last region state visited per slot. True if it ran a
  /// chunk.
  bool HelpRegions(size_t index, uint64_t* seen);
  /// True if a slot holds a posted region that `seen` does not list.
  bool HasUnseenRegion(const uint64_t* seen) const;

  std::unique_ptr<Region[]> regions_;
  std::atomic<uint64_t> next_generation_{1};
  std::atomic<int> sleepers_{0};
  std::atomic<size_t> queued_{0};
  std::atomic<bool> stop_{false};

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  uint64_t wake_epoch_ = 0;                  // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace lpa
