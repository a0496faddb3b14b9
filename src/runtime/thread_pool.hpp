#pragma once
// Work-stealing thread pool — the execution substrate of the parallel
// synthesis runtime.  Design goals, in order:
//
//  * nested submission must not deadlock: a pooled task may submit subtasks
//    and wait on them.  wait() therefore *helps*: while the future is not
//    ready the waiting thread drains pool work instead of blocking, so a
//    full pool always makes progress;
//  * exceptions propagate: a task that throws stores the exception in its
//    future and the pool keeps running — callers see the error at wait();
//  * low contention: each worker owns a deque (LIFO for locality) and
//    steals FIFO from victims when empty, with a mutex-guarded global
//    queue as the injection point for external submitters.
//
// The pool is intentionally dependency-free (std::thread only) so every
// layer of the flow — tools, benches, examples — can link it.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace adc {

class ThreadPool {
 public:
  // threads == 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Schedules `fn` and returns its future.  Safe to call from pool threads
  // (the task lands on the calling worker's own deque).
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    push_task([task]() { (*task)(); });
    return fut;
  }

  // Runs one queued task on the calling thread if any is available.
  // Returns false when no work could be claimed.
  bool run_one();

  // Helping wait: drains pool work on the calling thread until `fut` is
  // ready, then returns fut.get() (rethrowing any stored exception).
  template <typename R>
  R wait(std::future<R>& fut) {
    help_while([&] {
      return fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
    });
    return fut.get();
  }
  template <typename R>
  R wait(std::future<R>&& fut) {
    return wait(fut);
  }

  // Blocks (helping) until every submitted task has finished.
  void wait_idle();

  // Tasks executed since construction (monotonic, for metrics).
  std::uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  // Tasks submitted but not yet finished (instantaneous; gauge material).
  std::size_t pending() const { return pending_.load(std::memory_order_relaxed); }

 private:
  using Task = std::function<void()>;

  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> deque;
  };

  void push_task(Task t);
  bool pop_local(std::size_t worker, Task& out);
  bool steal(std::size_t thief, Task& out);
  bool pop_global(Task& out);
  void worker_main(std::size_t index);
  void help_while(const std::function<bool()>& busy);
  void run_task(Task& t);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex global_mu_;
  std::deque<Task> global_;
  std::condition_variable work_cv_;

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> pending_{0};  // submitted but not yet finished
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::size_t> steal_seed_{0};
};

// Scoped fan-out: subtasks whose completion the submitting thread awaits.
//
// ThreadPool::wait() helps with *any* queued work, which is what keeps a
// full pool from deadlocking — but it also means a stage that fans out
// and joins can end up executing unrelated queued jobs nested inside its
// own scope, billing their wall time (and any armed watchdog deadline) to
// the waiting stage.  TaskGroup::wait() instead runs only this group's
// tasks on the calling thread and blocks solely for tasks a pool worker
// already claimed, so the join's duration is bounded by the group's own
// work.  Every task is still visible to the pool: whichever side claims
// it first runs it, the other side sees a no-op.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool)
      : pool_(&pool), state_(std::make_shared<State>()) {}
  // Safety net: never leaves subtasks running past the group's scope
  // (their closures typically capture the caller's locals by reference).
  ~TaskGroup() {
    try {
      wait();
    } catch (...) {
    }
  }
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  template <typename Fn>
  void submit(Fn&& fn) {
    auto item = std::make_shared<Item>(std::function<void()>(std::forward<Fn>(fn)));
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->unclaimed.push_back(item);
      ++state_->outstanding;
    }
    auto state = state_;
    pool_->submit([state, item] {
      if (!item->claimed.exchange(true, std::memory_order_acq_rel))
        run_item(*state, *item);
    });
  }

  // Runs every not-yet-claimed group task inline, waits for the ones pool
  // workers claimed, then rethrows the first subtask exception (all
  // siblings are complete by then).  Idempotent.
  void wait();

 private:
  struct Item {
    explicit Item(std::function<void()> f) : fn(std::move(f)) {}
    std::atomic<bool> claimed{false};
    std::function<void()> fn;
  };
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::shared_ptr<Item>> unclaimed;
    std::size_t outstanding = 0;
    std::exception_ptr first_error;
  };
  // Static + shared state so a queued pool wrapper can outlive the group.
  static void run_item(State& state, Item& item);

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
};

}  // namespace adc
