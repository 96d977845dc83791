//===- exec/TaskGraph.h - Dependency-aware task scheduler -------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A one-shot task graph scheduled onto an exec::ThreadPool: nodes are
/// callables, edges are happens-before dependencies.  Dependencies must be
/// task ids returned by earlier add() calls, which makes the graph a DAG by
/// construction (no cycle detection needed).
///
/// The experiment engine uses this to express the paper's pipeline per
/// (benchmark, config) cell:
///
///   build workload ──> profile(run) ──┬──> select+simulate cell 0
///                 ├──> profile(train) ┼──> select+simulate cell 1
///                 └──> baseline sim ──┴──> ...
///
/// Two failure policies are offered (see DESIGN.md "Failure semantics"):
///
///  - run(): fail-fast.  The first throwing task cancels the whole graph:
///    every task that has not yet *started* when the failure is observed —
///    dependents and independent tasks alike — is skipped, the graph still
///    drains to completion (every node is visited exactly once), and run()
///    rethrows the first exception.  Tasks already executing finish
///    normally.  Which independent tasks got skipped depends on
///    scheduling; only the rethrown first-in-time exception is
///    deterministic for a serial pool.
///
///  - runAll(): run-to-completion.  Every task whose dependencies all
///    succeeded runs; a throwing task records a per-task dmp::Status
///    (StatusError's payload, or Invariant for foreign exceptions) and only
///    its transitive dependents are cancelled (Status code Cancelled,
///    message naming the failed dependency).  Independent subgraphs are
///    unaffected, which is what lets a campaign record failed cells as gaps
///    instead of aborting.
///
/// Results are deterministic for any thread count as long as tasks write
/// disjoint slots.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_EXEC_TASKGRAPH_H
#define DMP_EXEC_TASKGRAPH_H

#include "exec/ThreadPool.h"
#include "support/Status.h"

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

namespace dmp::exec {

/// A DAG of tasks, built single-threaded, run once on a pool.
class TaskGraph {
public:
  using TaskId = size_t;

  TaskGraph() = default;
  TaskGraph(const TaskGraph &) = delete;
  TaskGraph &operator=(const TaskGraph &) = delete;

  /// Adds a task that runs after every task in \p Deps has finished.
  /// Each dependency must be an id returned by a previous add() call.
  TaskId add(std::function<void()> Fn, const std::vector<TaskId> &Deps = {});

  /// Fail-fast policy: runs the whole graph on \p Pool and blocks until
  /// every task finished or was cancelled.  Rethrows the first exception
  /// thrown by a task; see the file comment for the exact cancellation
  /// semantics.  The graph is spent afterwards; build a new one for the
  /// next run.
  void run(ThreadPool &Pool);

  /// Run-to-completion policy: blocks until every runnable task finished,
  /// and returns one Status per task id.  A task that threw StatusError
  /// yields its payload; any other exception yields Invariant with the
  /// exception text; a task downstream of a failure yields Cancelled and
  /// never runs.  Never throws.  The graph is spent afterwards.
  ///
  /// \p CancelCheck, when non-null, is polled once before each task starts
  /// (after its dependencies finished): a non-ok Status skips the task and
  /// records that Status verbatim as the task's outcome.  This is the
  /// graceful-drain hook — in-flight tasks always finish, un-started ones
  /// are shed — used by guard::CancelToken consumers; keeping it a plain
  /// std::function keeps exec free of a guard dependency.  The check must
  /// be thread-safe and, once it returns non-ok, keep returning non-ok.
  std::vector<Status> runAll(ThreadPool &Pool,
                             std::function<Status()> CancelCheck = {});

  size_t size() const { return Nodes.size(); }

private:
  struct Node {
    std::function<void()> Fn;
    std::vector<TaskId> Deps;       ///< As passed to add().
    std::vector<TaskId> Dependents;
    size_t InitialDeps = 0; ///< As built; run()/runAll() pick roots from this.
    std::atomic<size_t> RemainingDeps{0};
  };

  void start(ThreadPool &Pool);
  void schedule(ThreadPool &Pool, TaskId Id);
  void finish(ThreadPool &Pool, TaskId Id);

  std::vector<std::unique_ptr<Node>> Nodes;
  bool Ran = false;
  bool KeepGoing = false; ///< runAll() policy; set before start().
  std::function<Status()> CancelCheck; ///< runAll() drain hook; may be null.

  // Run-time state.  Completed is guarded by DoneMutex (not atomic) on
  // purpose: the final increment, the notify, and the wait predicate must
  // be a single critical section, or the waiter could observe completion
  // and let the caller destroy the graph while the last finisher still
  // holds it.
  std::atomic<bool> Cancelled{false};
  std::mutex DoneMutex;
  std::condition_variable Done;
  size_t Completed = 0;
  std::exception_ptr FirstException;
  /// Per-task outcomes under runAll().  Pre-sized before start(), written
  /// only by the task's own finisher (disjoint slots), read after the
  /// barrier — so no extra locking is needed.
  std::vector<Status> Statuses;
};

} // namespace dmp::exec

#endif // DMP_EXEC_TASKGRAPH_H
