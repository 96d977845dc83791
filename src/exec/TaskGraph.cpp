//===- exec/TaskGraph.cpp - Dependency-aware task scheduler ---------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/TaskGraph.h"

#include <cassert>

using namespace dmp;
using namespace dmp::exec;

TaskGraph::TaskId TaskGraph::add(std::function<void()> Fn,
                                 const std::vector<TaskId> &Deps) {
  assert(!Ran && "cannot add tasks to a graph that already ran");
  assert(Fn && "null task added");
  const TaskId Id = Nodes.size();
  auto N = std::make_unique<Node>();
  N->Fn = std::move(Fn);
  N->Deps = Deps;
  size_t LiveDeps = 0;
  for (TaskId Dep : Deps) {
    assert(Dep < Id && "dependency must be a previously added task");
    Nodes[Dep]->Dependents.push_back(Id);
    ++LiveDeps;
  }
  N->InitialDeps = LiveDeps;
  N->RemainingDeps.store(LiveDeps, std::memory_order_relaxed);
  Nodes.push_back(std::move(N));
  return Id;
}

void TaskGraph::schedule(ThreadPool &Pool, TaskId Id) {
  Pool.submit([this, &Pool, Id] {
    if (KeepGoing) {
      // Run-to-completion: a task is cancelled iff some dependency did not
      // succeed.  Dependencies have finished (their Statuses slots are
      // final) before this task is ever scheduled, so the scan is safe.
      const Node &N = *Nodes[Id];
      const Status *BadStatus = nullptr;
      TaskId BadDep = 0;
      for (TaskId Dep : N.Deps)
        if (!Statuses[Dep].ok()) {
          BadDep = Dep;
          BadStatus = &Statuses[Dep];
          break;
        }
      // The drain check outranks the dep scan: once the graph is
      // draining, every un-started task uniformly reports the cancel
      // Status (origin "guard" for token trips), instead of downstream
      // tasks blaming their (also drained) dependencies.
      if (Status Drain = CancelCheck ? CancelCheck() : Status();
          !Drain.ok()) {
        // Graceful drain: the task never starts and its outcome is the
        // cancel Status itself, so callers can tell a drained task from a
        // dep-failure cancellation (origin "exec::TaskGraph").
        Statuses[Id] = std::move(Drain);
      } else if (BadStatus) {
        Statuses[Id] = Status::cancelled(
            "dependency task " + std::to_string(BadDep) + " " +
                errorCodeName(BadStatus->code()),
            "exec::TaskGraph");
      } else {
        try {
          N.Fn();
        } catch (const StatusError &E) {
          Statuses[Id] = E.status();
        } catch (const std::exception &E) {
          Statuses[Id] = Status::invariant(E.what(), "exec::TaskGraph");
        } catch (...) {
          Statuses[Id] =
              Status::invariant("task threw a non-std exception",
                                "exec::TaskGraph");
        }
      }
    } else if (!Cancelled.load(std::memory_order_acquire)) {
      try {
        Nodes[Id]->Fn();
      } catch (...) {
        {
          std::lock_guard<std::mutex> Lock(DoneMutex);
          if (!FirstException)
            FirstException = std::current_exception();
        }
        Cancelled.store(true, std::memory_order_release);
      }
    }
    finish(Pool, Id);
  });
}

void TaskGraph::finish(ThreadPool &Pool, TaskId Id) {
  // Unlock dependents first so they can overlap with other finishing tasks.
  for (TaskId Dep : Nodes[Id]->Dependents)
    if (Nodes[Dep]->RemainingDeps.fetch_sub(1, std::memory_order_acq_rel) == 1)
      schedule(Pool, Dep);
  // The increment and the notify stay under DoneMutex so the waiter cannot
  // see the graph as complete (and let the caller destroy it) until this —
  // the last finisher's final touch of graph state — has released the lock.
  std::lock_guard<std::mutex> Lock(DoneMutex);
  if (++Completed == Nodes.size())
    Done.notify_all();
}

void TaskGraph::start(ThreadPool &Pool) {
  assert(!Ran && "task graph can only run once");
  Ran = true;
  if (Nodes.empty())
    return;
  // Roots come from the build-time dependency count, NOT RemainingDeps:
  // workers already running earlier roots decrement RemainingDeps
  // concurrently with this loop, and a node whose count they drop to zero
  // mid-scan would otherwise be scheduled twice — once by finish(), once
  // here — over-counting Completed and releasing the waiter early.
  for (TaskId Id = 0; Id < Nodes.size(); ++Id)
    if (Nodes[Id]->InitialDeps == 0)
      schedule(Pool, Id);
  std::unique_lock<std::mutex> Lock(DoneMutex);
  Done.wait(Lock, [this] { return Completed == Nodes.size(); });
}

void TaskGraph::run(ThreadPool &Pool) {
  start(Pool);
  if (FirstException)
    std::rethrow_exception(FirstException);
}

std::vector<Status> TaskGraph::runAll(ThreadPool &Pool,
                                      std::function<Status()> Check) {
  KeepGoing = true;
  CancelCheck = std::move(Check);
  Statuses.assign(Nodes.size(), Status());
  start(Pool);
  return std::move(Statuses);
}
