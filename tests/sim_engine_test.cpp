#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
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

/// An engine that logs (now, arg) for every firing plus the (time, arg)
/// of every event schedule() asked for. `arg` numbers the events in
/// schedule order, so the engine must fire them in `want`'s sorted order:
/// (time, seq). `on_fire`, if set, runs after each firing is logged.
struct OrderLog {
  using Fired = std::vector<std::pair<double, std::uint64_t>>;
  Engine engine;
  Fired fired;
  Fired want;
  std::function<void(std::uint64_t arg)> on_fire;

  void schedule(double time) {
    const std::uint64_t arg = want.size();
    engine.schedule_raw_at(time, &OrderLog::record, this, arg);
    want.emplace_back(time, arg);
  }
  void schedule(std::initializer_list<double> times) {
    for (const double t : times) schedule(t);
  }
  void run_and_check() {
    engine.run_all();
    Fired sorted = want;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(fired, sorted);
    EXPECT_EQ(engine.pending(), 0u);
  }
  static void record(void* ctx, std::uint64_t arg) {
    auto& log = *static_cast<OrderLog*>(ctx);
    log.fired.emplace_back(log.engine.now(), arg);
    if (log.on_fire) log.on_fire(arg);
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

TEST(Engine, PeekLiveTimeReportsEarliestPending) {
  Engine engine;
  EXPECT_EQ(engine.peek_live_time(), std::numeric_limits<double>::infinity());
  engine.schedule_raw_at(1.0, noop, nullptr);
  engine.schedule_raw_at(5.0, noop, nullptr);
  EXPECT_DOUBLE_EQ(engine.peek_live_time(), 1.0);
  engine.step();
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

TEST(Engine, PendingTracksLiveEvents) {
  Engine engine;
  engine.schedule_raw_at(1.0, noop, nullptr);
  engine.schedule_raw_at(2.0, noop, nullptr);
  engine.schedule_raw_at(3.0, noop, nullptr);
  EXPECT_EQ(engine.pending(), 3u);
  engine.step();
  EXPECT_EQ(engine.pending(), 2u);
  engine.run_all();
  EXPECT_EQ(engine.pending(), 0u);
}

// Running dry leaves the calendar's current bucket where the last event
// was. Events scheduled after an idle stretch must still run in (time,
// seq) order wherever they land: before, in or after the current bucket,
// or beyond the calendar year (the first year spans 64 s).
TEST(Engine, CalendarRefillsInOrderAfterRunningDry) {
  OrderLog log;
  Engine& engine = log.engine;

  // Run dry mid-year, then refill at once: in the current bucket, after
  // it, and beyond the year.
  log.schedule({10.0, 30.5, 50.25});
  log.run_and_check();
  log.schedule({50.75, 50.25, 51.5, 63.0, 50.75, 200.0});
  EXPECT_EQ(engine.pending(), 6u);
  log.run_and_check();

  // Idle across several calendar years, then refill beyond the old year;
  // the peek moves the calendar to a new year starting at 1100.
  engine.run_until(1000.0);
  EXPECT_EQ(engine.pending(), 0u);
  log.schedule({1100.0, 5000.0, 1130.0, 1100.0, 1100.5});
  EXPECT_DOUBLE_EQ(engine.peek_live_time(), 1100.0);
  // Before the new year's first bucket, in it, after it, and beyond the
  // year, with ties against the events already there.
  log.schedule({1000.5, 1100.0, 1100.25, 1101.5, 1130.0, 99999.0, 1000.5});
  EXPECT_EQ(engine.pending(), 12u);
  EXPECT_DOUBLE_EQ(engine.peek_live_time(), 1000.5);
  log.run_and_check();
  EXPECT_EQ(engine.events_processed(), log.want.size());
}

// A year wrap redistributes the overflow ladder in place: the entries of
// the new year go to their buckets and the rest stay in the ladder for a
// later wrap. With the first year spanning 64 s, the wrap at 100 keeps
// 170..1000.5 in the ladder, and events scheduled from inside the new
// year tie with entries still in the ladder.
TEST(Engine, YearWrapKeepsLaterLadderEntriesInOrder) {
  OrderLog log;
  log.schedule({5.0, 1000.0, 170.0, 100.0, 300.0, 150.0, 100.0, 1000.5});
  log.on_fire = [&log](std::uint64_t arg) {
    if (arg == 5)  // the event at 150
      log.schedule({160.0, 170.0, 5000.0, 300.0});
    if (arg == 2)  // the first event at 170
      log.schedule({170.0, 171.0, 1000.0});
  };
  log.run_and_check();
  EXPECT_EQ(log.engine.events_processed(), 15u);
  EXPECT_DOUBLE_EQ(log.engine.now(), 5000.0);
}

// A year wrap that finds the calendar oversized shrinks it. 400 events
// within 4 s grow it past its 64 buckets; five far events scheduled after
// them go to the overflow ladder. Once the near events have run, the far
// ones are all that is pending when the year wraps, so the wrap rebuilds
// the calendar around them. Order must hold across the rebuild, also for
// ties scheduled from the first far event.
TEST(Engine, ShrinkingAtAYearWrapKeepsOrder) {
  OrderLog log;
  for (int i = 0; i < 400; ++i) log.schedule(std::fmod(i * 0.37, 4.0));
  log.schedule({1e6, 3e6, 1e6, 2e6, 1e6 + 1.0});
  log.on_fire = [&log](std::uint64_t arg) {
    if (arg == 400) log.schedule({1e6, 1e6 + 0.5, 2e6, 1e6 + 1.0});
  };
  log.run_and_check();
  EXPECT_EQ(log.engine.events_processed(), 409u);
}

// An event that schedules enough others to grow the calendar does so
// while the bucket being drained is half-popped; the rebuild must keep
// the remaining ties at the current time ahead of the new ones.
TEST(Engine, GrowingWhileABucketDrainsKeepsOrder) {
  OrderLog log;
  for (int i = 0; i < 10; ++i) log.schedule(1.0);
  log.schedule({1.5, 2.0, 1.0});
  log.on_fire = [&log](std::uint64_t arg) {
    if (arg != 3) return;
    for (int i = 0; i < 600; ++i)
      log.schedule(1.0 + static_cast<double>(i % 7) * 0.25);
  };
  log.run_and_check();
  EXPECT_EQ(log.engine.events_processed(), 613u);
}

// Re-armable timers: one pending firing each, outside the calendar but
// ordered against it by the same (time, seq) rule.
TEST(EngineTimer, EqualTimeOrderFollowsArmAndScheduleOrder) {
  Engine engine;
  std::vector<std::uint64_t> order;
  const Engine::Timer timer = engine.add_timer(
      [](void* ctx, std::uint64_t) {
        static_cast<std::vector<std::uint64_t>*>(ctx)->push_back(99);
      },
      &order);
  engine.schedule_raw_at(1.0, push_arg, &order, 1);
  engine.arm_after(timer, 1.0);                     // armed after event 1
  engine.schedule_raw_at(1.0, push_arg, &order, 2);  // scheduled after it
  engine.run_all();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 99, 2}));
}

TEST(EngineTimer, RearmingReplacesThePendingFiring) {
  TimeLog log;
  const Engine::Timer timer = log.engine.add_timer(&TimeLog::record, &log);
  log.engine.arm_after(timer, 5.0);
  log.engine.arm_after(timer, 2.0);
  log.engine.run_all();
  EXPECT_EQ(log.fired, (std::vector<double>{2.0}));
  EXPECT_EQ(log.engine.events_processed(), 1u);
}

TEST(EngineTimer, DisarmedTimerNeverFires) {
  Engine engine;
  bool ran = false;
  const Engine::Timer timer = engine.add_timer(set_flag, &ran);
  engine.arm_after(timer, 1.0);
  engine.disarm(timer);
  engine.disarm(timer);  // already disarmed: no-op
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.peek_live_time(), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(engine.step());
  engine.schedule_raw_at(3.0, noop, nullptr);
  engine.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(engine.events_processed(), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(EngineTimer, RunUntilLeavesALaterTimerPending) {
  TimeLog log;
  const Engine::Timer timer = log.engine.add_timer(&TimeLog::record, &log);
  log.engine.arm_after(timer, 7.0);
  log.engine.run_until(5.0);
  EXPECT_TRUE(log.fired.empty());
  EXPECT_DOUBLE_EQ(log.engine.now(), 5.0);
  EXPECT_EQ(log.engine.pending(), 1u);
  EXPECT_DOUBLE_EQ(log.engine.peek_live_time(), 7.0);
  log.engine.run_until(7.0);  // the boundary is inclusive
  EXPECT_EQ(log.fired, (std::vector<double>{7.0}));
}

TEST(EngineTimer, PendingAndRunAllCountArmedTimers) {
  struct Rearm {
    Engine engine;
    Engine::Timer timer = 0;
    int fired = 0;
    static void fire(void* ctx, std::uint64_t) {
      auto& self = *static_cast<Rearm*>(ctx);
      // The timer is disarmed while its handler runs, so it may re-arm.
      EXPECT_EQ(self.engine.pending(), 0u);
      if (++self.fired < 3) self.engine.arm_after(self.timer, 1.0);
    }
  } rearm;
  rearm.timer = rearm.engine.add_timer(&Rearm::fire, &rearm);
  rearm.engine.arm_after(rearm.timer, 1.0);
  EXPECT_EQ(rearm.engine.pending(), 1u);
  rearm.engine.schedule_raw_at(0.5, noop, nullptr);
  EXPECT_EQ(rearm.engine.pending(), 2u);
  rearm.engine.run_all();
  EXPECT_EQ(rearm.fired, 3);
  EXPECT_EQ(rearm.engine.pending(), 0u);
  EXPECT_EQ(rearm.engine.events_processed(), 4u);
  EXPECT_DOUBLE_EQ(rearm.engine.now(), 3.0);
}

TEST(EngineTimer, ArmRejectsBadDelays) {
  Engine engine;
  const Engine::Timer timer = engine.add_timer(noop, nullptr);
  EXPECT_THROW(engine.arm_after(timer, -1.0), std::invalid_argument);
  EXPECT_THROW(engine.arm_after(timer, std::nan("")), std::invalid_argument);
  EXPECT_THROW(
      engine.arm_after(timer, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
  EXPECT_EQ(engine.pending(), 0u);
}

// A timer's handler may register more timers (reallocating the engine's
// timer table) and arm them, and re-arm itself; every firing still runs
// in (time, seq) order.
TEST(EngineTimer, HandlerMayRegisterAndArmTimers) {
  struct Registry {
    struct Tag {
      Registry* registry = nullptr;
      std::uint64_t id = 0;
    };
    Engine engine;
    std::array<Tag, 33> tags{};
    std::vector<Engine::Timer> timers;
    std::vector<std::pair<double, std::uint64_t>> fired;  // (time, id)
    static void fire(void* ctx, std::uint64_t) {
      const Tag& tag = *static_cast<Tag*>(ctx);
      Registry& self = *tag.registry;
      self.fired.emplace_back(self.engine.now(), tag.id);
      if (tag.id != 0 || self.timers.size() > 1) return;
      for (std::uint64_t id = 1; id < self.tags.size(); ++id) {
        self.tags[id] = Tag{&self, id};
        self.timers.push_back(self.engine.add_timer(&fire, &self.tags[id]));
        self.engine.arm_after(self.timers.back(),
                              static_cast<double>(id % 4));
      }
      self.engine.arm_after(self.timers.front(), 2.0);
    }
  } registry;
  registry.tags[0] = Registry::Tag{&registry, 0};
  registry.timers.push_back(
      registry.engine.add_timer(&Registry::fire, &registry.tags[0]));
  registry.engine.arm_after(registry.timers.front(), 1.0);
  registry.engine.run_all();

  // Timer 0 fires at 1 and 3; timer id fires at 1 + id % 4, ties in arm
  // order, and timer 0's re-arm at 1 + 2 comes after the ids armed
  // before it.
  std::vector<std::pair<double, std::uint64_t>> want{{1.0, 0}};
  for (std::uint64_t offset = 0; offset < 4; ++offset) {
    for (std::uint64_t id = 1; id < registry.tags.size(); ++id)
      if (id % 4 == offset) want.emplace_back(1.0 + static_cast<double>(offset), id);
    if (offset == 2) want.emplace_back(3.0, 0);
  }
  EXPECT_EQ(registry.fired, want);
  EXPECT_EQ(registry.engine.pending(), 0u);
  EXPECT_EQ(registry.engine.events_processed(), 34u);
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
// random times (with deliberate ties), nested scheduling, and re-armed and
// disarmed timers. LegacyEngine is driven through its own closure API,
// Engine through raw dispatch with the firing closure as ctx. On
// LegacyEngine a timer is its one pending event, canceled and rescheduled
// on every re-arm: the way the resources moved their next completion
// before they had timers.
constexpr std::size_t kTraceTimers = 4;
constexpr std::uint64_t kTimerId = 200000;  // timer k fires id kTimerId + k

using Fire = std::function<void(std::uint64_t)>;

class LegacyTimers {
 public:
  LegacyTimers(LegacyEngine& engine, Fire& fire)
      : engine_(engine), fire_(fire) {}
  LegacyTimers(const LegacyTimers&) = delete;
  LegacyTimers& operator=(const LegacyTimers&) = delete;

  void arm(std::size_t k, double delay) {
    disarm(k);
    pending_[k] = engine_.schedule_after(delay, [this, k] {
      pending_[k].reset();  // disarmed before it fires, as Engine does
      fire_(kTimerId + k);
    });
  }
  void disarm(std::size_t k) {
    LegacyEngine::cancel(pending_[k]);
    pending_[k].reset();
  }

 private:
  LegacyEngine& engine_;
  Fire& fire_;
  std::array<LegacyEngine::Handle, kTraceTimers> pending_{};
};

class EngineTimers {
 public:
  EngineTimers(Engine& engine, Fire& fire) : engine_(engine) {
    for (std::size_t k = 0; k < kTraceTimers; ++k) {
      targets_[k] = Target{&fire, kTimerId + k};
      timers_[k] = engine.add_timer(
          [](void* ctx, std::uint64_t) {
            const auto& target = *static_cast<Target*>(ctx);
            (*target.fire)(target.id);
          },
          &targets_[k]);
    }
  }
  EngineTimers(const EngineTimers&) = delete;
  EngineTimers& operator=(const EngineTimers&) = delete;

  void arm(std::size_t k, double delay) { engine_.arm_after(timers_[k], delay); }
  void disarm(std::size_t k) { engine_.disarm(timers_[k]); }

 private:
  struct Target {
    Fire* fire = nullptr;
    std::uint64_t id = 0;
  };
  Engine& engine_;
  std::array<Target, kTraceTimers> targets_{};
  std::array<Engine::Timer, kTraceTimers> timers_{};
};

TEST(Engine, TraceMatchesLegacyEngineBitForBit) {
  struct Trace {
    std::vector<double> times;
    std::vector<std::uint64_t> ids;
  };
  // Quantized times manufacture equal-time collisions, also between
  // events and timers. Every third event schedules a follow-up, every
  // fifth re-arms a timer and every eleventh disarms one. Timer firings
  // only record: a firing that acted would let timer 0 (id 200000, a
  // multiple of 5) re-arm itself forever. `at`/`after` schedule a call of
  // fire(id); `Timers` wraps the engine's timers.
  const auto drive = [](auto& engine, auto at, auto after, auto timers_tag) {
    using Timers = typename decltype(timers_tag)::type;
    Trace trace;
    util::Rng rng(12345, 99);
    Fire fire;
    Timers timers(engine, fire);
    fire = [&](std::uint64_t id) {
      trace.times.push_back(engine.now());
      trace.ids.push_back(id);
      if (id >= kTimerId) return;
      if (id % 3 == 0) {
        const double delay = std::floor(rng.uniform() * 50.0) * 0.25;
        after(engine, delay, fire, 100000 + id);
      }
      if (id % 5 == 0)
        timers.arm(id % kTraceTimers, std::floor(rng.uniform() * 40.0) * 0.25);
      if (id % 11 == 0) timers.disarm(id % kTraceTimers);
    };
    for (std::uint64_t id = 0; id < 4000; ++id)
      at(engine, std::floor(rng.uniform() * 400.0) * 0.25, fire, id);
    engine.run_until(75.0);
    engine.run_all();
    return trace;
  };
  constexpr Engine::RawFn kCall = [](void* ctx, std::uint64_t id) {
    (*static_cast<Fire*>(ctx))(id);
  };

  LegacyEngine legacy;
  const Trace want = drive(
      legacy,
      [](LegacyEngine& e, double t, Fire& fire, std::uint64_t id) {
        e.schedule_at(t, [&fire, id] { fire(id); });
      },
      [](LegacyEngine& e, double d, Fire& fire, std::uint64_t id) {
        e.schedule_after(d, [&fire, id] { fire(id); });
      },
      std::type_identity<LegacyTimers>{});
  Engine engine;
  const Trace got = drive(
      engine,
      [](Engine& e, double t, Fire& fire, std::uint64_t id) {
        e.schedule_raw_at(t, kCall, &fire, id);
      },
      [](Engine& e, double d, Fire& fire, std::uint64_t id) {
        e.schedule_raw_after(d, kCall, &fire, id);
      },
      std::type_identity<EngineTimers>{});
  ASSERT_EQ(want.ids.size(), got.ids.size());
  EXPECT_EQ(want.ids, got.ids);
  for (std::size_t i = 0; i < want.times.size(); ++i)
    ASSERT_EQ(want.times[i], got.times[i]) << "at event " << i;
  EXPECT_EQ(legacy.events_processed(), engine.events_processed());
  EXPECT_EQ(legacy.now(), engine.now());
  // The trace must really contain timer firings, or it pins nothing
  // about them.
  const auto timer_firings = std::count_if(
      got.ids.begin(), got.ids.end(),
      [](std::uint64_t id) { return id >= kTimerId; });
  EXPECT_GT(timer_firings, 0);
}

}  // namespace
}  // namespace epp::sim
