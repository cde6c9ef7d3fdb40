#include "util/executor.hpp"

#include "util/cancel.hpp"

namespace protest {
namespace {

/// The executor whose task is currently running on this thread (nullptr
/// outside tasks).  Set around every task so nested submissions to the
/// same executor can be detected on pool threads and on the caller.
thread_local const Executor* tl_current_executor = nullptr;

struct CurrentExecutorGuard {
  explicit CurrentExecutorGuard(const Executor* e)
      : prev(tl_current_executor) {
    tl_current_executor = e;
  }
  ~CurrentExecutorGuard() { tl_current_executor = prev; }
  const Executor* prev;
};

}  // namespace

Executor::Executor(unsigned num_workers)
    : num_workers_(num_workers == 0 ? 1 : num_workers) {}
Executor::Executor(ParallelConfig config) : Executor(config.resolved()) {}

void Executor::parallel_for(
    std::size_t num_tasks,
    const std::function<void(std::size_t, unsigned)>& fn) {
  if (num_tasks == 0) return;
  if (tl_current_executor == this) {
    // Nested submission from one of our own tasks: the job lock is held
    // by the enclosing job, so run inline on this worker.  Task-indexed
    // work decomposition makes this produce the same results serially.
    for (std::size_t t = 0; t < num_tasks; ++t) fn(t, 0);
    return;
  }
  // Capture the submitting thread's cancellation token BEFORE queueing
  // behind another job: checkpoints inside our tasks must observe the
  // submitting JOB's cancellation, and pool threads have no scope of
  // their own.
  const CancelToken cancel = current_cancel_token();
  const std::lock_guard<std::mutex> job(job_mu_);
  if (!pool_) pool_ = std::make_unique<ThreadPool>(num_workers_);
  // Mark every task (pool workers AND the caller acting as worker 0) so a
  // nested submission is detected no matter which worker it comes from.
  pool_->parallel_for(num_tasks, [&](std::size_t t, unsigned w) {
    const CurrentExecutorGuard guard(this);
    const CancelScope scope(cancel);
    fn(t, w);
  });
}

std::shared_ptr<Executor> make_executor(const ParallelConfig& config) {
  if (config.executor) return config.executor;
  return std::make_shared<Executor>(config.resolved());
}

void run_tasks(const ParallelConfig& config, std::size_t num_tasks,
               const std::function<void(std::size_t, unsigned)>& fn) {
  if (num_tasks <= 1 || config.resolved() == 1) {
    for (std::size_t t = 0; t < num_tasks; ++t) fn(t, 0);
    return;
  }
  make_executor(config)->parallel_for(num_tasks, fn);
}

}  // namespace protest
