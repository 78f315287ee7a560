// The pre-refactor discrete-event engine, frozen verbatim (modulo the
// class name) as a reference implementation.
//
// It is NOT used by the simulator any more — sim::Engine (engine.hpp)
// replaced the shared_ptr/std::function binary heap with a calendar/ladder
// queue of plain entries plus re-armable timers. This copy exists for two
// jobs only:
//
//   * bench/sim_engine_micro keeps an old-vs-new comparison point so the
//     perf trajectory in BENCH_sim.json stays anchored to the seed;
//   * tests/sim_engine_test drives both engines through identical
//     stochastic schedules and asserts bit-identical execution traces
//     (the "exact mode stays exact" guarantee of the refactor). That
//     test models a timer as one pending event of this engine, canceled
//     and rescheduled on every re-arm.
//
// Do not "fix" or optimise this file; it is the baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace epp::sim {

class LegacyEngine {
 public:
  using Callback = std::function<void()>;

  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // tie-break so equal-time events run FIFO
    Callback fn;
    bool canceled = false;
  };
  using Handle = std::shared_ptr<Event>;

  double now() const noexcept { return now_; }
  std::uint64_t events_processed() const noexcept { return processed_; }

  Handle schedule_at(double time, Callback fn) {
    if (time < now_)
      throw std::invalid_argument("Engine::schedule_at: time in the past");
    auto event = std::make_shared<Event>();
    event->time = time;
    event->seq = next_seq_++;
    event->fn = std::move(fn);
    heap_.push(event);
    return event;
  }

  Handle schedule_after(double delay, Callback fn) {
    if (delay < 0.0)
      throw std::invalid_argument("Engine::schedule_after: negative delay");
    return schedule_at(now_ + delay, std::move(fn));
  }

  static void cancel(const Handle& handle) noexcept {
    if (handle) handle->canceled = true;
  }

  bool step() {
    while (!heap_.empty()) {
      Handle event = heap_.top();
      heap_.pop();
      if (event->canceled) continue;
      now_ = event->time;
      ++processed_;
      Callback fn = std::move(event->fn);
      fn();
      return true;
    }
    return false;
  }

  void run_until(double end_time) {
    while (!heap_.empty() && heap_.top()->time <= end_time) step();
    if (end_time > now_) now_ = end_time;
  }

  void run_all() {
    while (step()) {
    }
  }

 private:
  struct Later {
    bool operator()(const Handle& a, const Handle& b) const noexcept {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Handle, std::vector<Handle>, Later> heap_;
};

}  // namespace epp::sim
