// thread_pool.h - a small FIFO thread pool for coarse-grained, independent
// jobs (one design-space-exploration point each). This is the first
// concurrency layer in the repository, so the contract is deliberately
// narrow:
//
//   * Jobs are fire-and-forget closures; results travel through whatever
//     storage the closure captures (the DSE engine gives every job its own
//     pre-allocated result slot, so no synchronization is needed on the
//     result path and outcomes are independent of scheduling order).
//   * Jobs must not throw. A job that lets an exception escape would
//     std::terminate the process (it is running on a worker thread), so the
//     pool catches and latches the first failure instead; wait_idle()
//     rethrows it on the submitting thread.
//   * Determinism is the *caller's* property: the pool promises that every
//     submitted job runs exactly once (or is explicitly cancelled) and that
//     jobs *start* in submission order, never that they finish in it.
//     Callers that want identical results for any worker count must make
//     jobs independent - see docs/DESIGN.md §5.
//
// Topology: one FIFO deque under one pool mutex (see the locking note in
// thread_pool.cpp). submit() appends and an idle worker claims the front,
// so a busy worker never holds queued work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace softsched {

class thread_pool {
public:
  using job = std::function<void()>;

  /// Spins up `worker_count` threads (clamped to >= 1).
  explicit thread_pool(unsigned worker_count);

  /// Cancels every job that has not started, waits for in-flight jobs to
  /// finish, and joins the workers. Never blocks on *pending* work - a
  /// full queue at destruction time is discarded, not drained.
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues one job. Throws precondition_error after shutdown began.
  void submit(job j);

  /// Blocks until every submitted job has either run or been cancelled.
  /// If any job threw, rethrows the first such exception here (once).
  void wait_idle();

  /// Discards all jobs that have not started yet and returns how many were
  /// dropped. In-flight jobs are unaffected.
  std::size_t cancel_pending();

  /// max(1, std::thread::hardware_concurrency()) - the default worker
  /// count for "--jobs 0 = use the machine".
  [[nodiscard]] static unsigned hardware_workers() noexcept;

  /// Index of the pool worker the calling thread is, or -1 on any thread
  /// that is not a pool worker (including the thread that owns the pool).
  /// This is how per-worker scratch (sched::run_context) is picked without
  /// a lock: worker i owns slot i, non-workers own the extra slot.
  [[nodiscard]] static int current_worker_index() noexcept;

private:
  void worker_main(std::size_t self);

  std::vector<std::thread> workers_;

  // Queue + sleep/wake + lifecycle, all guarded by state_mutex_.
  // outstanding_ counts submitted-but-unfinished jobs (pending + in
  // flight), so wait_idle() and the workers agree on "idle".
  std::mutex state_mutex_;
  std::deque<job> pending_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t outstanding_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// Runs fn(0) .. fn(count - 1), fanning out over `pool`. Blocks until all
/// calls finished; rethrows the first job exception. A null pool (or a
/// 1-worker pool) still runs everything - just without parallelism.
void parallel_for_index(thread_pool* pool, std::size_t count,
                        const std::function<void(std::size_t)>& fn);

} // namespace softsched
