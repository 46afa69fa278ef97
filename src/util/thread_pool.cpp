#include "util/thread_pool.h"

#include "util/check.h"

namespace softsched {

// Locking note: all queue state - the pending deque, the outstanding
// counter, the stop flag - is guarded by the single state_mutex_. A job
// here is a whole scheduling run (milliseconds), a queue operation is
// nanoseconds, so the lock is invisible in profiles while making the
// accounting exact - outstanding_ equals pending_.size() plus in-flight
// jobs whenever the mutex is free, and a claim pops atomically with the
// decision to run, so cancel_pending() and a claiming worker can never race
// over one job.

thread_pool::thread_pool(unsigned worker_count) {
  const unsigned n = worker_count == 0 ? 1 : worker_count;
  workers_.reserve(n);
  try {
    for (unsigned i = 0; i < n; ++i)
      workers_.emplace_back([this, i] { worker_main(i); });
  } catch (...) {
    // A spawn failed (resource exhaustion). Joinable std::threads must be
    // joined before destruction or the process terminates, so stop and
    // join the workers that did start, then surface the original error.
    {
      std::lock_guard<std::mutex> lk(state_mutex_);
      stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

thread_pool::~thread_pool() {
  cancel_pending();
  {
    std::lock_guard<std::mutex> lk(state_mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void thread_pool::submit(job j) {
  SOFTSCHED_EXPECT(j != nullptr, "thread_pool::submit needs a callable job");
  {
    std::lock_guard<std::mutex> lk(state_mutex_);
    SOFTSCHED_EXPECT(!stopping_, "thread_pool::submit after shutdown began");
    pending_.push_back(std::move(j));
    ++outstanding_;
  }
  work_available_.notify_one();
}

namespace {
// Which worker the current thread is; -1 off-pool. One pool is live at a
// time in every binary here, so a plain thread_local index suffices.
thread_local int t_worker_index = -1;
} // namespace

int thread_pool::current_worker_index() noexcept { return t_worker_index; }

void thread_pool::worker_main(std::size_t self) {
  t_worker_index = static_cast<int>(self);
  for (;;) {
    job j;
    {
      std::unique_lock<std::mutex> lk(state_mutex_);
      // The pop happens under the same lock as the wake-up check, so a
      // concurrent cancel_pending() can never drop a job a worker already
      // committed to running.
      work_available_.wait(lk, [&] { return stopping_ || !pending_.empty(); });
      if (stopping_) return; // pending work at shutdown is discarded
      j = std::move(pending_.front());
      pending_.pop_front();
    }
    try {
      j();
    } catch (...) {
      std::lock_guard<std::mutex> lk(state_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(state_mutex_);
      --outstanding_;
      if (outstanding_ == 0) idle_.notify_all();
    }
  }
}

void thread_pool::wait_idle() {
  std::unique_lock<std::mutex> lk(state_mutex_);
  idle_.wait(lk, [&] { return outstanding_ == 0; });
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

std::size_t thread_pool::cancel_pending() {
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lk(state_mutex_);
    dropped = pending_.size();
    pending_.clear();
    outstanding_ -= dropped;
    if (outstanding_ == 0) idle_.notify_all();
  }
  return dropped;
}

unsigned thread_pool::hardware_workers() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void parallel_for_index(thread_pool* pool, std::size_t count,
                        const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || pool->worker_count() <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  for (std::size_t i = 0; i < count; ++i)
    pool->submit([&fn, i] { fn(i); });
  pool->wait_idle();
}

} // namespace softsched
