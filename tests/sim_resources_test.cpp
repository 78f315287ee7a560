#include "sim/resources.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace epp::sim {
namespace {

TEST(PsResource, SingleJobTakesDemandOverSpeed) {
  Engine engine;
  PsResource cpu(engine, 2.0);
  double done_at = -1.0;
  cpu.add_job(3.0, [&] { done_at = engine.now(); });
  engine.run_all();
  EXPECT_NEAR(done_at, 1.5, 1e-12);
}

TEST(PsResource, SimultaneousJobsShareEqually) {
  Engine engine;
  PsResource cpu(engine, 1.0);
  std::vector<double> done;
  cpu.add_job(1.0, [&] { done.push_back(engine.now()); });
  cpu.add_job(1.0, [&] { done.push_back(engine.now()); });
  engine.run_all();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-12);
  EXPECT_NEAR(done[1], 2.0, 1e-12);
}

TEST(PsResource, StaggeredArrivalExactCompletion) {
  // A (demand 2) starts at t=0 alone; B (demand 1) arrives at t=1.
  // At t=1 A has 1 unit left; both then progress at rate 1/2, so both
  // complete at t=3. This is the classic egalitarian-PS check.
  Engine engine;
  PsResource cpu(engine, 1.0);
  double a_done = -1.0, b_done = -1.0;
  cpu.add_job(2.0, [&] { a_done = engine.now(); });
  auto arrive_b = [&] {
    cpu.add_job(1.0, [&] { b_done = engine.now(); });
  };
  engine.schedule_raw_at(
      1.0,
      [](void* ctx, std::uint64_t) {
        (*static_cast<decltype(arrive_b)*>(ctx))();
      },
      &arrive_b);
  engine.run_all();
  EXPECT_NEAR(a_done, 3.0, 1e-12);
  EXPECT_NEAR(b_done, 3.0, 1e-12);
}

TEST(PsResource, ShorterJobFinishesFirst) {
  Engine engine;
  PsResource cpu(engine, 1.0);
  double short_done = -1.0, long_done = -1.0;
  cpu.add_job(4.0, [&] { long_done = engine.now(); });
  cpu.add_job(1.0, [&] { short_done = engine.now(); });
  engine.run_all();
  // Shared until short job attains 1 unit at t=2; long job then has 3
  // units left alone, completing at t=5.
  EXPECT_NEAR(short_done, 2.0, 1e-12);
  EXPECT_NEAR(long_done, 5.0, 1e-12);
}

TEST(PsResource, UtilizationIntegratesBusyTime) {
  Engine engine;
  PsResource cpu(engine, 1.0);
  engine.schedule_raw_at(
      2.0,
      [](void* ctx, std::uint64_t) {
        static_cast<PsResource*>(ctx)->add_job(1.0, [] {});
      },
      &cpu);
  engine.run_until(4.0);
  // Busy from t=2 to t=3 out of 4 seconds.
  EXPECT_NEAR(cpu.utilization(4.0), 0.25, 1e-12);
}

TEST(PsResource, ZeroDemandCompletesImmediately) {
  Engine engine;
  PsResource cpu(engine, 1.0);
  double done_at = -1.0;
  cpu.add_job(0.0, [&] { done_at = engine.now(); });
  engine.run_all();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(PsResource, RejectsInvalidArguments) {
  Engine engine;
  EXPECT_THROW(PsResource(engine, 0.0), std::invalid_argument);
  PsResource cpu(engine, 1.0);
  EXPECT_THROW(cpu.add_job(-1.0, [] {}), std::invalid_argument);
}

// A PS completion is a timer firing: against a calendar event at the
// same time it runs in schedule order, whichever came first.
TEST(PsResource, CompletionAndEventAtOneTimeRunInScheduleOrder) {
  struct Log {
    std::vector<char> order;
    static void event(void* ctx, std::uint64_t) {
      static_cast<Log*>(ctx)->order.push_back('e');
    }
  };
  {
    Engine engine;
    PsResource cpu(engine, 1.0);
    Log log;
    engine.schedule_raw_at(1.0, &Log::event, &log);
    cpu.add_job(1.0, [&] { log.order.push_back('c'); });  // done at t=1
    engine.run_all();
    EXPECT_EQ(log.order, (std::vector<char>{'e', 'c'}));
  }
  {
    Engine engine;
    PsResource cpu(engine, 1.0);
    Log log;
    cpu.add_job(1.0, [&] { log.order.push_back('c'); });
    engine.schedule_raw_at(1.0, &Log::event, &log);
    engine.run_all();
    EXPECT_EQ(log.order, (std::vector<char>{'c', 'e'}));
  }
}

TEST(PsResource, EqualFinishTimesCompleteInArrivalOrder) {
  Engine engine;
  PsResource cpu(engine, 1.0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    cpu.add_job(1.0, [&order, i] { order.push_back(i); });
  EXPECT_EQ(engine.pending(), 1u);  // one timer, however many jobs
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(cpu.active_jobs(), 0u);
}

TEST(FifoResource, ServesOneAtATime) {
  Engine engine;
  FifoResource disk(engine, 1.0);
  std::vector<double> done;
  disk.add_job(1.0, [&] { done.push_back(engine.now()); });
  disk.add_job(2.0, [&] { done.push_back(engine.now()); });
  disk.add_job(0.5, [&] { done.push_back(engine.now()); });
  engine.run_all();
  EXPECT_EQ(done, (std::vector<double>{1.0, 3.0, 3.5}));
}

TEST(FifoResource, SpeedScalesServiceTime) {
  Engine engine;
  FifoResource disk(engine, 4.0);
  double done_at = -1.0;
  disk.add_job(2.0, [&] { done_at = engine.now(); });
  engine.run_all();
  EXPECT_NEAR(done_at, 0.5, 1e-12);
}

TEST(FifoResource, UtilizationTracksBusyFraction) {
  Engine engine;
  FifoResource disk(engine, 1.0);
  disk.add_job(1.0, [] {});
  engine.run_until(2.0);
  EXPECT_NEAR(disk.utilization(2.0), 0.5, 1e-12);
}

TEST(SlotPool, GrantsUpToCapacityImmediately) {
  SlotPool pool(2, 1);
  int granted = 0;
  pool.acquire(0, [&] { ++granted; });
  pool.acquire(0, [&] { ++granted; });
  pool.acquire(0, [&] { ++granted; });
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(pool.waiting(), 1u);
  pool.release();
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(pool.in_use(), 2u);  // slot transferred to the waiter
  EXPECT_EQ(pool.waiting(), 0u);
}

TEST(SlotPool, ReleaseWithoutWaitersFreesSlot) {
  SlotPool pool(1, 1);
  pool.acquire(0, [] {});
  pool.release();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(SlotPool, RoundRobinAcrossSourceQueues) {
  // Two app servers feeding the DB tier: admission must alternate between
  // their queues rather than draining one first.
  SlotPool pool(1, 2);
  std::vector<int> admitted;
  pool.acquire(0, [] {});  // occupy the only slot
  pool.acquire(0, [&] { admitted.push_back(0); });
  pool.acquire(0, [&] { admitted.push_back(0); });
  pool.acquire(1, [&] { admitted.push_back(1); });
  pool.acquire(1, [&] { admitted.push_back(1); });
  for (int i = 0; i < 4; ++i) pool.release();
  EXPECT_EQ(admitted, (std::vector<int>{0, 1, 0, 1}));
}

TEST(SlotPool, WaitersKeepFifoOrderAcrossRingGrowth) {
  // More waiters than the ring's first capacity, admitted while others
  // queue, so the ring wraps and grows with a non-zero head.
  SlotPool pool(1, 1);
  std::vector<int> admitted;
  pool.acquire(0, [] {});
  for (int i = 0; i < 5; ++i)
    pool.acquire(0, [&admitted, i] { admitted.push_back(i); });
  for (int i = 0; i < 3; ++i) pool.release();
  for (int i = 5; i < 40; ++i)
    pool.acquire(0, [&admitted, i] { admitted.push_back(i); });
  EXPECT_EQ(pool.waiting(), 37u);
  while (pool.waiting() > 0) pool.release();
  ASSERT_EQ(admitted.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(admitted[static_cast<std::size_t>(i)], i);
}

TEST(SlotPool, InvalidUseThrows) {
  EXPECT_THROW(SlotPool(0, 1), std::invalid_argument);
  EXPECT_THROW(SlotPool(1, 0), std::invalid_argument);
  SlotPool pool(1, 1);
  EXPECT_THROW(pool.acquire(5, [] {}), std::out_of_range);
  EXPECT_THROW(pool.release(), std::logic_error);
}

}  // namespace
}  // namespace epp::sim
