// Discrete-event simulation engine.
//
// A single-threaded engine built for million-client populations: the
// parallelism in EPP lives one level up (independent replications and
// parameter sweeps on util::ThreadPool, see sim/replicate.hpp), which is
// the standard way to scale stochastic discrete-event studies, so the
// engine itself optimises for single-core event throughput:
//
//   * Two-tier calendar/ladder queue. Near-future events hash into an
//     array of time buckets (the calendar year); only the bucket being
//     drained is kept as a binary heap, so inserts into future buckets
//     are O(1) amortised. Far-future events sit in an unsorted overflow
//     ladder and are redistributed when the calendar year wraps. An
//     event lives in its calendar entry, so scheduling allocates nothing
//     once the buckets have grown.
//   * Re-armable timers, one per resource, outside the calendar. A
//     timer has at most one pending firing; arm_after() moves it and
//     disarm() drops it in O(1), so a processor-sharing CPU whose next
//     completion moves on every arrival never touches the calendar. The
//     loop takes the earlier of the calendar head and the first armed
//     timer (a linear scan: a simulation has a handful of resources).
//     The calendar is left to the events that need it, the clients'
//     think events.
//   * One scheduling API: typed dispatch. An event is a plain function
//     pointer plus (ctx, arg) — zero type erasure, 40-byte entries.
//     Callers that need a closure keep it themselves: the resources in
//     resources.hpp hold their std::function continuations and register
//     only `this` as a timer's ctx.
//
// Determinism: equal-time events run FIFO in schedule order (a global
// sequence number breaks ties; arming a timer takes the next number
// exactly as scheduling an event does), identical to the pre-refactor
// binary-heap engine — same seed, same schedule, bit-identical results.
// The frozen pre-refactor engine is kept as sim::LegacyEngine
// (legacy_engine.hpp) for benchmark comparison and determinism
// cross-checks.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace epp::sim {

class Engine {
 public:
  /// Event handler: `fn(ctx, arg)` runs when the event fires.
  using RawFn = void (*)(void* ctx, std::uint64_t arg);

  /// Index of a re-armable timer, returned by add_timer().
  using Timer = std::uint32_t;

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  double now() const noexcept { return now_; }
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Schedule `fn(ctx, arg)` at an absolute time >= now() (must be
  /// finite), or `delay` >= 0 after now(). A scheduled event always
  /// fires; a caller that may withdraw its next firing uses a timer.
  void schedule_raw_at(double time, RawFn fn, void* ctx,
                       std::uint64_t arg = 0);
  void schedule_raw_after(double delay, RawFn fn, void* ctx,
                          std::uint64_t arg = 0);

  /// Register a re-armable timer that runs `fn(ctx, 0)` each time it
  /// fires. It starts disarmed; registrations last as long as the engine.
  Timer add_timer(RawFn fn, void* ctx);
  /// Arm `timer` to fire `delay` >= 0 after now(), replacing its pending
  /// firing if it has one. Takes the next sequence number, so the firing
  /// orders against equal-time events exactly as schedule_raw_after()
  /// would.
  void arm_after(Timer timer, double delay);
  /// Drop `timer`'s pending firing; no-op if it is not armed. A timer is
  /// disarmed just before it fires, so its handler may re-arm it.
  void disarm(Timer timer) noexcept;

  /// Run the next pending event. Returns false when nothing is pending.
  bool step();

  /// Process every pending event and armed timer with time <= end_time,
  /// then advance now() to end_time.
  void run_until(double end_time);

  /// Drain every pending event and armed timer (useful for terminating
  /// workloads).
  void run_all();

  /// Time of the earliest pending event or armed timer, or +infinity when
  /// none is pending.
  double peek_live_time();

  /// Scheduled events not yet fired plus armed timers.
  std::size_t pending() const noexcept { return live_ + armed_; }

 private:
  // ---- two-tier calendar / overflow ladder --------------------------
  struct QEntry {
    double time;
    std::uint64_t seq;  // global FIFO tie-break for equal times
    RawFn fn;
    void* ctx;
    std::uint64_t arg;
  };
  // Min-heap order on (time, seq) via std::*_heap's max-heap primitives.
  struct EntryAfter {
    bool operator()(const QEntry& a, const QEntry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// A registered timer; `time` is +infinity while it is disarmed, so the
  /// scan for the first armed timer needs no separate flag.
  struct TimerRecord {
    double time = std::numeric_limits<double>::infinity();
    std::uint64_t seq = 0;
    RawFn fn = nullptr;
    void* ctx = nullptr;
  };

  /// Fire the earliest of the calendar head and the first armed timer,
  /// by (time, seq), if its time is <= limit. False if nothing fired.
  bool fire_next(double limit);
  /// The calendar's earliest entry, or nullptr when it is empty.
  const QEntry* calendar_head();
  /// The armed timer with the smallest (time, seq), or nullptr.
  TimerRecord* first_timer() noexcept;

  void insert(const QEntry& entry);
  /// Put an entry of the current year into its bucket.
  void place(const QEntry& entry);
  /// Move to the next non-empty bucket; caller guarantees live_ > 0.
  /// Wrapping past the last bucket starts a new calendar year
  /// (redistributing the overflow ladder, jumping idle years).
  void advance_bucket();
  void start_new_year();
  /// Re-bucket every entry into `num_buckets` buckets sized for the
  /// current pending population (grow/shrink path).
  void rebuild(std::size_t num_buckets);
  std::vector<QEntry> drain_entries();

  double year_end() const noexcept {
    return year_start_ +
           static_cast<double>(buckets_.size()) * bucket_width_;
  }
  std::size_t bucket_index(double time) const noexcept;

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;   // calendar events
  std::size_t armed_ = 0;  // armed timers

  std::vector<TimerRecord> timers_;

  std::vector<std::vector<QEntry>> buckets_;  // buckets_[cur_] is a heap
  std::vector<QEntry> overflow_;              // beyond the current year
  std::size_t cur_ = 0;
  double year_start_ = 0.0;
  double bucket_width_ = 1.0;
};

}  // namespace epp::sim
