// Discrete-event simulation engine.
//
// A single-threaded engine built for million-client populations: the
// parallelism in EPP lives one level up (independent replications and
// parameter sweeps on util::ThreadPool, see sim/replicate.hpp), which is
// the standard way to scale stochastic discrete-event studies, so the
// engine itself optimises for single-core event throughput:
//
//   * Slab-allocated event pool. Events are POD records living in
//     fixed-size chunks with a LIFO free list — no per-event heap
//     allocation on the steady-state path, and canceled slots are
//     reclaimed eagerly (pending()/capacity() expose the accounting).
//   * Two-tier calendar/ladder queue. Near-future events hash into an
//     array of time buckets (the calendar year); only the bucket being
//     drained is kept as a binary heap, so inserts into future buckets
//     are O(1) amortised. Far-future events sit in an unsorted overflow
//     ladder and are redistributed when the calendar year wraps.
//   * One scheduling API: typed dispatch. An event is a plain function
//     pointer plus (ctx, arg) — zero type erasure, 40-byte records.
//     Callers that need a closure keep it themselves: the resources in
//     resources.hpp hold their std::function continuations and pass
//     only `this` as ctx.
//   * Generation-checked integer handles. cancel() is O(1), idempotent,
//     and immune to slot reuse: a stale handle simply misses.
//
// Determinism: equal-time events run FIFO in schedule order (a global
// sequence number breaks ties), identical to the pre-refactor binary-heap
// engine — same seed, same schedule, bit-identical results. The frozen
// pre-refactor engine is kept as sim::LegacyEngine (legacy_engine.hpp)
// for benchmark comparison and determinism cross-checks.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace epp::sim {

class Engine {
 public:
  /// Event handler: `fn(ctx, arg)` runs when the event fires.
  using RawFn = void (*)(void* ctx, std::uint64_t arg);

  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// Generation-checked event handle. Copyable value; a handle to an
  /// event that already fired or was canceled is harmless (cancel
  /// becomes a no-op), even if the slot has been reused since.
  struct Handle {
    std::uint32_t slot = kNoSlot;
    std::uint32_t gen = 0;
    constexpr explicit operator bool() const noexcept {
      return slot != kNoSlot;
    }
    void reset() noexcept { *this = Handle{}; }
  };

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  double now() const noexcept { return now_; }
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Schedule `fn(ctx, arg)` at an absolute time >= now() (must be
  /// finite), or `delay` >= 0 after now(). Returns a handle usable with
  /// cancel(); discard it if cancellation is not needed.
  Handle schedule_raw_at(double time, RawFn fn, void* ctx,
                         std::uint64_t arg = 0);
  Handle schedule_raw_after(double delay, RawFn fn, void* ctx,
                            std::uint64_t arg = 0);

  /// Cancel a pending event. O(1): the slot is reclaimed eagerly (its
  /// queue entry goes stale and is skipped lazily). No-op if the event
  /// already fired, was already canceled, or the handle is empty.
  void cancel(Handle handle) noexcept;

  /// Run the next pending event. Returns false when nothing is pending.
  bool step();

  /// Process every live event with time <= end_time, then advance now()
  /// to end_time. Canceled events never extend the run: the loop is
  /// driven by peek_live_time(), so a canceled head beyond end_time (or
  /// in front of a later live event) cannot leak an out-of-window
  /// execution the way the old `heap_.top()->time` check could.
  void run_until(double end_time);

  /// Drain every pending event (useful for terminating workloads).
  void run_all();

  /// Time of the earliest *live* (non-canceled) pending event, or
  /// +infinity when none is pending. Purges stale queue heads as a side
  /// effect (amortised into scheduling cost).
  double peek_live_time();

  /// Live (scheduled, not yet fired or canceled) event count.
  std::size_t pending() const noexcept { return live_; }
  /// Total event slots owned by the slab (high-water mark of concurrent
  /// pending events, rounded up to whole chunks). Canceled slots are
  /// reused, so cancel-heavy workloads do not grow this.
  std::size_t capacity() const noexcept { return chunks_.size() * kChunkSize; }

 private:
  // ---- slab-allocated event pool ------------------------------------
  static constexpr std::size_t kChunkShift = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  struct Record {
    double time = 0.0;
    RawFn fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;
    std::uint32_t gen = 0;  // bumped on every free; handles/entries match it
  };

  // ---- two-tier calendar / overflow ladder --------------------------
  struct QEntry {
    double time;
    std::uint64_t seq;  // global FIFO tie-break for equal times
    std::uint32_t slot;
    std::uint32_t gen;
  };
  // Min-heap order on (time, seq) via std::*_heap's max-heap primitives.
  struct EntryAfter {
    bool operator()(const QEntry& a, const QEntry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Record& record(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  const Record& record(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  std::uint32_t allocate_slot();
  void free_slot(std::uint32_t slot) noexcept;

  void insert(const QEntry& entry);
  /// Move to the next bucket with a live entry; caller guarantees
  /// live_ > 0. Wrapping past the last bucket starts a new calendar year
  /// (redistributing the overflow ladder, jumping idle years).
  void advance_bucket();
  void start_new_year();
  /// Re-bucket every live entry into `num_buckets` buckets sized for the
  /// current pending population (grow/shrink path).
  void rebuild(std::size_t num_buckets);
  std::vector<QEntry> drain_live_entries();

  double year_end() const noexcept {
    return year_start_ +
           static_cast<double>(buckets_.size()) * bucket_width_;
  }
  std::size_t bucket_index(double time) const noexcept;

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;

  std::vector<std::vector<QEntry>> buckets_;  // buckets_[cur_] is a heap
  std::vector<QEntry> overflow_;              // beyond the current year
  std::size_t cur_ = 0;
  double year_start_ = 0.0;
  double bucket_width_ = 1.0;
};

}  // namespace epp::sim
