#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/legacy_engine.hpp"
#include "util/rng.hpp"

namespace epp::sim {
namespace {

// Raw-dispatch handlers the tests schedule: each takes its state as ctx.
void push_arg(void* ctx, std::uint64_t arg) {
  static_cast<std::vector<std::uint64_t>*>(ctx)->push_back(arg);
}
void count(void* ctx, std::uint64_t) { ++*static_cast<int*>(ctx); }
void set_flag(void* ctx, std::uint64_t) { *static_cast<bool*>(ctx) = true; }
void noop(void*, std::uint64_t) {}

/// An engine plus the firing times a handler records into it.
struct TimeLog {
  Engine engine;
  std::vector<double> fired;
  static void record(void* ctx, std::uint64_t) {
    auto& log = *static_cast<TimeLog*>(ctx);
    log.fired.push_back(log.engine.now());
  }
};

TEST(Engine, EventsRunInTimeOrder) {
  Engine engine;
  std::vector<std::uint64_t> order;
  engine.schedule_raw_at(3.0, push_arg, &order, 3);
  engine.schedule_raw_at(1.0, push_arg, &order, 1);
  engine.schedule_raw_at(2.0, push_arg, &order, 2);
  engine.run_all();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, EqualTimesRunFifo) {
  Engine engine;
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 0; i < 5; ++i)
    engine.schedule_raw_at(1.0, push_arg, &order, i);
  engine.run_all();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  TimeLog log;
  log.engine.schedule_raw_at(
      5.0,
      [](void* ctx, std::uint64_t) {
        static_cast<TimeLog*>(ctx)->engine.schedule_raw_after(
            2.5, &TimeLog::record, ctx);
      },
      &log);
  log.engine.run_all();
  EXPECT_EQ(log.fired, (std::vector<double>{7.5}));
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool ran = false;
  Engine::Handle handle = engine.schedule_raw_at(1.0, set_flag, &ran);
  EXPECT_TRUE(handle);
  engine.cancel(handle);
  engine.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(Engine, CancelIsIdempotentAndSafeOnStaleHandles) {
  Engine engine;
  int fired = 0;
  Engine::Handle first = engine.schedule_raw_at(1.0, count, &fired);
  engine.cancel(first);
  engine.cancel(first);  // double cancel: no-op
  // The slot is reclaimed eagerly, so this schedule reuses it; the stale
  // handle's generation no longer matches and must not cancel it.
  Engine::Handle second = engine.schedule_raw_at(2.0, count, &fired);
  engine.cancel(first);
  engine.run_all();
  EXPECT_EQ(fired, 1);
  engine.cancel(second);  // already fired: no-op
  engine.cancel(Engine::Handle{});  // empty handle: no-op
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  int fired = 0;
  engine.schedule_raw_at(1.0, count, &fired);
  engine.schedule_raw_at(2.0, count, &fired);
  engine.schedule_raw_at(3.0, count, &fired);
  engine.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run_until(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

// Regression (pre-refactor bug): run_until used the raw queue head's time
// to decide whether to step, but step() skips canceled heads and executes
// the next live event wherever it is — so a canceled head inside the
// window let a live event far beyond end_time run. The loop is now driven
// by peek_live_time(), which never reports canceled events.
TEST(Engine, RunUntilIgnoresCanceledHeadBeforeLaterEvent) {
  Engine engine;
  bool late_ran = false;
  Engine::Handle canceled = engine.schedule_raw_at(1.0, noop, nullptr);
  engine.schedule_raw_at(20.0, set_flag, &late_ran);
  engine.cancel(canceled);
  engine.run_until(10.0);
  EXPECT_FALSE(late_ran);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
  engine.run_until(25.0);
  EXPECT_TRUE(late_ran);
}

TEST(Engine, PeekLiveTimeSkipsCanceledEvents) {
  Engine engine;
  EXPECT_EQ(engine.peek_live_time(), std::numeric_limits<double>::infinity());
  Engine::Handle early = engine.schedule_raw_at(1.0, noop, nullptr);
  engine.schedule_raw_at(5.0, noop, nullptr);
  EXPECT_DOUBLE_EQ(engine.peek_live_time(), 1.0);
  engine.cancel(early);
  EXPECT_DOUBLE_EQ(engine.peek_live_time(), 5.0);
  engine.run_all();
  EXPECT_EQ(engine.peek_live_time(), std::numeric_limits<double>::infinity());
}

TEST(Engine, PastSchedulingRejected) {
  Engine engine;
  engine.schedule_raw_at(5.0, noop, nullptr);
  engine.run_all();
  EXPECT_THROW(engine.schedule_raw_at(1.0, noop, nullptr),
               std::invalid_argument);
  EXPECT_THROW(engine.schedule_raw_after(-1.0, noop, nullptr),
               std::invalid_argument);
  EXPECT_THROW(engine.schedule_raw_at(std::nan(""), noop, nullptr),
               std::invalid_argument);
  EXPECT_THROW(engine.schedule_raw_at(std::numeric_limits<double>::infinity(),
                                      noop, nullptr),
               std::invalid_argument);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule_raw_at(1.0, noop, nullptr);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  struct Chain {
    Engine engine;
    int depth = 0;
    static void link(void* ctx, std::uint64_t) {
      auto& chain = *static_cast<Chain*>(ctx);
      if (++chain.depth < 100)
        chain.engine.schedule_raw_after(1.0, &Chain::link, ctx);
    }
  } chain;
  chain.engine.schedule_raw_at(0.0, &Chain::link, &chain);
  chain.engine.run_all();
  EXPECT_EQ(chain.depth, 100);
  EXPECT_EQ(chain.engine.events_processed(), 100u);
}

TEST(Engine, RawDispatchCarriesContextAndArg) {
  Engine engine;
  std::vector<std::uint64_t> seen;
  engine.schedule_raw_at(2.0, push_arg, &seen, 7);
  engine.schedule_raw_at(1.0, push_arg, &seen, 3);
  engine.schedule_raw_after(3.0, push_arg, &seen, 9);
  engine.run_all();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 7, 9}));
  EXPECT_EQ(engine.events_processed(), 3u);
}

// Satellite (b): canceled slots are reclaimed eagerly, so cancel-heavy
// workloads reuse the slab instead of growing it.
TEST(Engine, CanceledSlotsAreReusedWithoutGrowingTheSlab) {
  Engine engine;
  EXPECT_EQ(engine.pending(), 0u);
  std::vector<Engine::Handle> handles;
  for (int i = 0; i < 1000; ++i)
    handles.push_back(engine.schedule_raw_at(1.0 + i, noop, nullptr));
  EXPECT_EQ(engine.pending(), 1000u);
  const std::size_t capacity_before = engine.capacity();
  EXPECT_GE(capacity_before, 1000u);
  for (const Engine::Handle& h : handles) engine.cancel(h);
  EXPECT_EQ(engine.pending(), 0u);
  // Many cancel/reschedule rounds: capacity must not grow past the first
  // high-water mark because every canceled slot goes back on the free list.
  for (int round = 0; round < 20; ++round) {
    handles.clear();
    for (int i = 0; i < 1000; ++i)
      handles.push_back(engine.schedule_raw_at(1.0 + i, noop, nullptr));
    for (const Engine::Handle& h : handles) engine.cancel(h);
  }
  EXPECT_EQ(engine.capacity(), capacity_before);
  EXPECT_EQ(engine.pending(), 0u);
  engine.run_all();
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(Engine, PendingTracksLiveEvents) {
  Engine engine;
  engine.schedule_raw_at(1.0, noop, nullptr);
  Engine::Handle h = engine.schedule_raw_at(2.0, noop, nullptr);
  engine.schedule_raw_at(3.0, noop, nullptr);
  EXPECT_EQ(engine.pending(), 3u);
  engine.cancel(h);
  EXPECT_EQ(engine.pending(), 2u);
  engine.step();
  EXPECT_EQ(engine.pending(), 1u);
  engine.run_all();
  EXPECT_EQ(engine.pending(), 0u);
}

// The calendar queue's overflow ladder and year wrap: events spread over
// ten orders of magnitude of simulated time still run in order.
TEST(Engine, WidelySpacedTimesRunInOrder) {
  TimeLog log;
  util::Rng rng(7, 7);
  std::vector<double> times;
  for (int i = 0; i < 2000; ++i)
    times.push_back(rng.uniform() * std::pow(10.0, rng.uniform(0.0, 10.0)));
  for (const double t : times)
    log.engine.schedule_raw_at(t, &TimeLog::record, &log);
  log.engine.run_all();
  ASSERT_EQ(log.fired.size(), times.size());
  for (std::size_t i = 1; i < log.fired.size(); ++i)
    EXPECT_LE(log.fired[i - 1], log.fired[i]);
}

// Satellite (c): one million equal-time events preserve global FIFO order.
TEST(Engine, MillionEqualTimeEventsRunFifo) {
  Engine engine;
  constexpr std::uint64_t kEvents = 1'000'000;
  std::vector<std::uint64_t> order;
  order.reserve(kEvents);
  // Two interleaved time values so the FIFO guarantee is exercised within
  // a bucket heap, not just by insertion order.
  for (std::uint64_t i = 0; i < kEvents; ++i)
    engine.schedule_raw_at(i % 2 == 0 ? 1.0 : 2.0, push_arg, &order, i);
  engine.run_all();
  ASSERT_EQ(order.size(), kEvents);
  for (std::uint64_t i = 1; i < kEvents / 2; ++i) {
    ASSERT_EQ(order[i], order[i - 1] + 2);           // all the t=1.0 events
    ASSERT_EQ(order[kEvents / 2 + i],                // then the t=2.0 events
              order[kEvents / 2 + i - 1] + 2);
  }
  EXPECT_EQ(order.front(), 0u);
  EXPECT_EQ(order[kEvents / 2], 1u);
}

// Satellite (c): the new engine's execution trace is bit-identical to the
// frozen pre-refactor engine's under an adversarial stochastic schedule —
// random times (with deliberate ties), nested scheduling, and cancels.
// LegacyEngine is driven through its own closure API, Engine through raw
// dispatch with the firing closure as ctx.
TEST(Engine, TraceMatchesLegacyEngineBitForBit) {
  struct Trace {
    std::vector<double> times;
    std::vector<std::uint64_t> ids;
  };
  using Fire = std::function<void(std::uint64_t)>;
  // Quantized times manufacture equal-time collisions; every third event
  // schedules a follow-up and every seventh pre-scheduled event is
  // canceled before the run. `at`/`after` schedule a call of fire(id).
  const auto drive = [](auto& engine, auto at, auto after, auto cancel_fn) {
    Trace trace;
    util::Rng rng(12345, 99);
    std::uint64_t next_id = 0;
    Fire fire = [&](std::uint64_t id) {
      trace.times.push_back(engine.now());
      trace.ids.push_back(id);
      if (id % 3 == 0) {
        const double delay = std::floor(rng.uniform() * 50.0) * 0.25;
        after(engine, delay, fire, 100000 + id);
      }
    };
    std::vector<decltype(at(engine, 0.0, fire, 0))> handles;
    for (int i = 0; i < 4000; ++i) {
      const double t = std::floor(rng.uniform() * 400.0) * 0.25;
      handles.push_back(at(engine, t, fire, next_id++));
    }
    for (std::size_t i = 0; i < handles.size(); i += 7)
      cancel_fn(engine, handles[i]);
    engine.run_until(75.0);
    engine.run_all();
    return trace;
  };

  LegacyEngine legacy;
  const Trace want = drive(
      legacy,
      [](LegacyEngine& e, double t, Fire& fire, std::uint64_t id) {
        return e.schedule_at(t, [&fire, id] { fire(id); });
      },
      [](LegacyEngine& e, double d, Fire& fire, std::uint64_t id) {
        return e.schedule_after(d, [&fire, id] { fire(id); });
      },
      [](LegacyEngine&, const LegacyEngine::Handle& h) {
        LegacyEngine::cancel(h);
      });
  constexpr Engine::RawFn kCall = [](void* ctx, std::uint64_t id) {
    (*static_cast<Fire*>(ctx))(id);
  };
  Engine engine;
  const Trace got = drive(
      engine,
      [](Engine& e, double t, Fire& fire, std::uint64_t id) {
        return e.schedule_raw_at(t, kCall, &fire, id);
      },
      [](Engine& e, double d, Fire& fire, std::uint64_t id) {
        return e.schedule_raw_after(d, kCall, &fire, id);
      },
      [](Engine& e, const Engine::Handle& h) { e.cancel(h); });
  ASSERT_EQ(want.ids.size(), got.ids.size());
  EXPECT_EQ(want.ids, got.ids);
  for (std::size_t i = 0; i < want.times.size(); ++i)
    ASSERT_EQ(want.times[i], got.times[i]) << "at event " << i;
  EXPECT_EQ(legacy.events_processed(), engine.events_processed());
  EXPECT_EQ(legacy.now(), engine.now());
}

}  // namespace
}  // namespace epp::sim
