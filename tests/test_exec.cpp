//===- tests/test_exec.cpp - Thread pool and task graph unit tests ------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/TaskGraph.h"
#include "exec/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

using namespace dmp::exec;

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I < 1000; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1000);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(3);
    for (int I = 0; I < 200; ++I)
      Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
    // No wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(Count.load(), 200);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool Pool(1);
  std::atomic<int> Count{0};
  for (int I = 0; I < 50; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 50);
  EXPECT_EQ(Pool.threadCount(), 1u);
}

TEST(ThreadPoolTest, ZeroRequestedThreadsClampsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.threadCount(), 1u);
}

TEST(ThreadPoolTest, NestedSubmissionsComplete) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int I = 0; I < 20; ++I)
    Pool.submit([&Pool, &Count] {
      for (int J = 0; J < 10; ++J)
        Pool.submit(
            [&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
    });
  Pool.wait();
  EXPECT_EQ(Count.load(), 200);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  ThreadPool Pool(2);
  Pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // The exception is consumed; the pool stays usable.
  std::atomic<int> Count{0};
  Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1);
}

TEST(ThreadPoolTest, RepeatedConstructionAndTeardown) {
  // Shutdown races tend to show up as hangs or crashes over many cycles.
  for (int Round = 0; Round < 50; ++Round) {
    ThreadPool Pool(Round % 4 + 1);
    std::atomic<int> Count{0};
    for (int I = 0; I < 20; ++I)
      Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
    Pool.wait();
    ASSERT_EQ(Count.load(), 20);
  }
}

TEST(TaskGraphTest, DependenciesOrderExecution) {
  ThreadPool Pool(4);
  TaskGraph Graph;
  std::atomic<int> Order{0};
  int SlotA = -1, SlotB = -1, SlotC = -1;
  const auto A = Graph.add([&] { SlotA = Order.fetch_add(1); });
  const auto B = Graph.add([&] { SlotB = Order.fetch_add(1); }, {A});
  Graph.add([&] { SlotC = Order.fetch_add(1); }, {A, B});
  Graph.run(Pool);
  EXPECT_LT(SlotA, SlotB);
  EXPECT_LT(SlotB, SlotC);
}

TEST(TaskGraphTest, DiamondRunsEveryNodeOnce) {
  ThreadPool Pool(4);
  TaskGraph Graph;
  std::vector<std::atomic<int>> Runs(4);
  const auto Top = Graph.add([&] { Runs[0].fetch_add(1); });
  const auto Left = Graph.add([&] { Runs[1].fetch_add(1); }, {Top});
  const auto Right = Graph.add([&] { Runs[2].fetch_add(1); }, {Top});
  Graph.add([&] { Runs[3].fetch_add(1); }, {Left, Right});
  Graph.run(Pool);
  for (auto &R : Runs)
    EXPECT_EQ(R.load(), 1);
}

TEST(TaskGraphTest, WideFanOutCompletes) {
  ThreadPool Pool(4);
  TaskGraph Graph;
  std::atomic<int> Count{0};
  const auto Root = Graph.add([&Count] { Count.fetch_add(1); });
  std::vector<TaskGraph::TaskId> Mids;
  for (int I = 0; I < 100; ++I)
    Mids.push_back(Graph.add([&Count] { Count.fetch_add(1); }, {Root}));
  Graph.add([&Count] { Count.fetch_add(1); }, Mids);
  Graph.run(Pool);
  EXPECT_EQ(Count.load(), 102);
}

TEST(TaskGraphTest, ExceptionCancelsDependentsAndRethrows) {
  ThreadPool Pool(2);
  TaskGraph Graph;
  std::atomic<bool> DependentRan{false};
  const auto Bad =
      Graph.add([]() -> void { throw std::runtime_error("stage failed"); });
  Graph.add([&DependentRan] { DependentRan = true; }, {Bad});
  EXPECT_THROW(Graph.run(Pool), std::runtime_error);
  EXPECT_FALSE(DependentRan.load());
}

TEST(TaskGraphTest, IndependentTasksStillSkippedAfterCancellation) {
  // Cancellation is best-effort for independent tasks, but the graph must
  // still terminate and rethrow.
  ThreadPool Pool(1);
  TaskGraph Graph;
  Graph.add([]() -> void { throw std::runtime_error("first"); });
  std::atomic<int> Count{0};
  for (int I = 0; I < 10; ++I)
    Graph.add([&Count] { Count.fetch_add(1); });
  EXPECT_THROW(Graph.run(Pool), std::runtime_error);
}

TEST(TaskGraphTest, EmptyGraphRuns) {
  ThreadPool Pool(2);
  TaskGraph Graph;
  Graph.run(Pool); // must not hang or throw
  EXPECT_EQ(Graph.size(), 0u);
}

TEST(TaskGraphTest, ManyRoundsOnSharedPool) {
  // The fig5 crash mode: graph destroyed on the waiter thread while the
  // last finisher is still inside the graph.  Many quick rounds over a
  // shared pool make that window easy to hit if it regresses.
  ThreadPool Pool(4);
  for (int Round = 0; Round < 200; ++Round) {
    TaskGraph Graph;
    std::atomic<int> Sum{0};
    std::vector<TaskGraph::TaskId> Roots;
    for (int I = 0; I < 8; ++I)
      Roots.push_back(Graph.add([&Sum] { Sum.fetch_add(1); }));
    for (int I = 0; I < 8; ++I)
      Graph.add([&Sum] { Sum.fetch_add(10); }, {Roots[I]});
    Graph.run(Pool);
    ASSERT_EQ(Sum.load(), 88);
  }
}

//===----------------------------------------------------------------------===//
// runAll(): the run-to-completion policy (see TaskGraph.h for the contract)
//===----------------------------------------------------------------------===//

using dmp::ErrorCode;
using dmp::Status;
using dmp::StatusError;

TEST(TaskGraphRunAllTest, RecordsPerTaskStatus) {
  ThreadPool Pool(4);
  TaskGraph Graph;
  std::atomic<int> GoodRan{0};
  const auto Good = Graph.add([&GoodRan] { GoodRan.fetch_add(1); });
  const auto Foreign =
      Graph.add([]() -> void { throw std::runtime_error("disk on fire"); });
  const auto Typed = Graph.add([]() -> void {
    throw StatusError(Status::transient("injected blip", "test"));
  });
  const std::vector<Status> St = Graph.runAll(Pool);
  ASSERT_EQ(St.size(), 3u);
  EXPECT_TRUE(St[Good].ok());
  EXPECT_EQ(GoodRan.load(), 1);
  // A foreign exception maps to Invariant with the exception text.
  EXPECT_EQ(St[Foreign].code(), ErrorCode::Invariant);
  EXPECT_NE(St[Foreign].message().find("disk on fire"), std::string::npos);
  // A StatusError's payload comes through unchanged.
  EXPECT_EQ(St[Typed].code(), ErrorCode::Transient);
  EXPECT_EQ(St[Typed].message(), "injected blip");
}

TEST(TaskGraphRunAllTest, CancelsOnlyTransitiveDependents) {
  ThreadPool Pool(4);
  TaskGraph Graph;
  std::atomic<bool> DependentRan{false}, IndependentRan{false};
  const auto Bad =
      Graph.add([]() -> void { throw std::runtime_error("stage failed"); });
  const auto Child =
      Graph.add([&DependentRan] { DependentRan = true; }, {Bad});
  const auto GrandChild = Graph.add([] {}, {Child});
  const auto Free = Graph.add([&IndependentRan] { IndependentRan = true; });
  const std::vector<Status> St = Graph.runAll(Pool);
  // The failure poisons its transitive dependents only...
  EXPECT_EQ(St[Bad].code(), ErrorCode::Invariant);
  EXPECT_EQ(St[Child].code(), ErrorCode::Cancelled);
  EXPECT_EQ(St[GrandChild].code(), ErrorCode::Cancelled);
  EXPECT_FALSE(DependentRan.load());
  // ...and the cancellation message names the failed dependency.
  EXPECT_NE(St[Child].message().find(std::to_string(Bad)),
            std::string::npos);
  // Independent subgraphs are unaffected — unlike run()'s fail-fast mode.
  EXPECT_TRUE(St[Free].ok());
  EXPECT_TRUE(IndependentRan.load());
}

TEST(TaskGraphRunAllTest, DiamondWithOneFailedParentIsCancelled) {
  ThreadPool Pool(2);
  TaskGraph Graph;
  const auto Ok = Graph.add([] {});
  const auto Bad = Graph.add(
      []() -> void { throw StatusError(Status::corrupt("bad blob", "t")); });
  std::atomic<bool> JoinRan{false};
  const auto Join = Graph.add([&JoinRan] { JoinRan = true; }, {Ok, Bad});
  const std::vector<Status> St = Graph.runAll(Pool);
  EXPECT_TRUE(St[Ok].ok());
  EXPECT_EQ(St[Bad].code(), ErrorCode::Corrupt);
  EXPECT_EQ(St[Join].code(), ErrorCode::Cancelled);
  EXPECT_FALSE(JoinRan.load());
}

TEST(TaskGraphRunAllTest, AllOkGraphReturnsAllOk) {
  ThreadPool Pool(3);
  TaskGraph Graph;
  std::atomic<int> Sum{0};
  const auto Root = Graph.add([&Sum] { Sum.fetch_add(1); });
  for (int I = 0; I < 20; ++I)
    Graph.add([&Sum] { Sum.fetch_add(1); }, {Root});
  const std::vector<Status> St = Graph.runAll(Pool);
  EXPECT_EQ(Sum.load(), 21);
  for (const Status &S : St)
    EXPECT_TRUE(S.ok()) << S.toString();
}

TEST(TaskGraphRunAllTest, EmptyGraphReturnsNoStatuses) {
  ThreadPool Pool(2);
  TaskGraph Graph;
  EXPECT_TRUE(Graph.runAll(Pool).empty());
}
