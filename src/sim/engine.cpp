#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/annotations.hpp"

namespace epp::sim {
namespace {

constexpr std::size_t kMinBuckets = 64;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;
// Grow the calendar when pending events exceed kGrowFactor per bucket;
// shrink (on year boundaries) when they fall below 1/kGrowFactor.
constexpr std::size_t kGrowFactor = 4;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Engine::Engine() : buckets_(kMinBuckets) {}

std::uint32_t Engine::allocate_slot() {
  if (free_slots_.empty()) {
    if (chunks_.size() >= (std::size_t{1} << (32 - kChunkShift)))
      throw std::length_error("Engine: event slab exhausted");
    chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
    const auto base =
        static_cast<std::uint32_t>((chunks_.size() - 1) << kChunkShift);
    free_slots_.reserve(free_slots_.size() + kChunkSize);
    // Push in reverse so slots are first handed out in ascending order.
    for (std::size_t i = kChunkSize; i-- > 0;)
      free_slots_.push_back(base + static_cast<std::uint32_t>(i));
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void Engine::free_slot(std::uint32_t slot) noexcept {
  // Invalidates outstanding handles and stale queue entries.
  ++record(slot).gen;
  free_slots_.push_back(slot);
}

Engine::Handle Engine::schedule_raw_at(double time, RawFn fn, void* ctx,
                                       std::uint64_t arg) {
  // !(time >= now_) also rejects NaN; infinities would park forever in
  // the overflow ladder and break the year-jump logic, so refuse them.
  if (!(time >= now_) || !std::isfinite(time))
    throw std::invalid_argument("Engine::schedule_raw_at: time in the past");
  const std::uint32_t slot = allocate_slot();
  Record& rec = record(slot);
  rec.time = time;
  rec.fn = fn;
  rec.ctx = ctx;
  rec.arg = arg;
  const QEntry entry{time, next_seq_++, slot, rec.gen};
  ++live_;
  insert(entry);
  return Handle{slot, rec.gen};
}

Engine::Handle Engine::schedule_raw_after(double delay, RawFn fn, void* ctx,
                                          std::uint64_t arg) {
  if (!(delay >= 0.0))
    throw std::invalid_argument("Engine::schedule_raw_after: negative delay");
  return schedule_raw_at(now_ + delay, fn, ctx, arg);
}

void Engine::cancel(Handle handle) noexcept {
  if (!handle) return;
  Record& rec = record(handle.slot);
  if (rec.gen != handle.gen) return;  // already fired / canceled / reused
  --live_;
  free_slot(handle.slot);  // the queue entry goes stale; skipped lazily
}

std::size_t Engine::bucket_index(double time) const noexcept {
  if (time <= year_start_) return 0;
  const double idx = (time - year_start_) / bucket_width_;
  const auto n = buckets_.size();
  const auto i = static_cast<std::size_t>(idx);
  return i >= n ? n - 1 : i;
}

void Engine::insert(const QEntry& entry) {
  if (live_ > buckets_.size() * kGrowFactor && buckets_.size() < kMaxBuckets) {
    rebuild(next_pow2(live_ / 2));
    // `entry` is not in the structure yet; rebuild only moved the others.
  }
  if (entry.time >= year_end()) {
    overflow_.push_back(entry);
    return;
  }
  const std::size_t idx = bucket_index(entry.time);
  if (idx <= cur_) {
    // The event lands in (or before) the bucket being drained: keep the
    // heap property so it still pops in global (time, seq) order.
    buckets_[cur_].push_back(entry);
    std::push_heap(buckets_[cur_].begin(), buckets_[cur_].end(), EntryAfter{});
  } else {
    buckets_[idx].push_back(entry);  // unsorted until the calendar arrives
  }
}

std::vector<Engine::QEntry> Engine::drain_live_entries() {
  std::vector<QEntry> live;
  live.reserve(live_);
  for (auto& bucket : buckets_) {
    for (const QEntry& e : bucket)
      if (record(e.slot).gen == e.gen) live.push_back(e);
    bucket.clear();
  }
  for (const QEntry& e : overflow_)
    if (record(e.slot).gen == e.gen) live.push_back(e);
  overflow_.clear();
  return live;
}

void Engine::rebuild(std::size_t num_buckets) {
  num_buckets = std::clamp(num_buckets, kMinBuckets, kMaxBuckets);
  std::vector<QEntry> live = drain_live_entries();
  buckets_.assign(num_buckets, {});
  cur_ = 0;
  double min_t = kInfinity, max_t = -kInfinity;
  for (const QEntry& e : live) {
    min_t = std::min(min_t, e.time);
    max_t = std::max(max_t, e.time);
  }
  // Size buckets so the live population spreads to ~1 event per bucket;
  // everything past the year boundary falls into the overflow ladder.
  year_start_ = live.empty() ? now_ : std::min(now_, min_t);
  const double span = max_t - year_start_;
  bucket_width_ = span > 0.0 && !live.empty()
                      ? span / static_cast<double>(live.size())
                      : 1.0;
  for (const QEntry& e : live) insert(e);
  std::make_heap(buckets_[cur_].begin(), buckets_[cur_].end(), EntryAfter{});
}

void Engine::start_new_year() {
  // Every bucket is empty, so all live events sit in the overflow
  // ladder. Jump the calendar straight to the earliest of them (idle
  // years cost nothing) and redistribute.
  std::vector<QEntry> live;
  live.reserve(overflow_.size());
  double min_t = kInfinity;
  for (const QEntry& e : overflow_)
    if (record(e.slot).gen == e.gen) {
      live.push_back(e);
      min_t = std::min(min_t, e.time);
    }
  overflow_.clear();
  cur_ = 0;
  year_start_ = min_t;
  if (live.size() < buckets_.size() / kGrowFactor &&
      buckets_.size() > kMinBuckets) {
    // Shrink on year boundaries only, so steady-state pops stay cheap.
    overflow_ = std::move(live);
    rebuild(next_pow2(std::max<std::size_t>(1, overflow_.size())));
    return;
  }
  for (const QEntry& e : live) insert(e);
  std::make_heap(buckets_[cur_].begin(), buckets_[cur_].end(), EntryAfter{});
}

void Engine::advance_bucket() {
  ++cur_;
  while (cur_ < buckets_.size() && buckets_[cur_].empty()) ++cur_;
  if (cur_ < buckets_.size()) {
    std::make_heap(buckets_[cur_].begin(), buckets_[cur_].end(), EntryAfter{});
    return;
  }
  start_new_year();
}

EPP_HOT_BEGIN(sim_event_loop);

double Engine::peek_live_time() {
  if (live_ == 0) {
    // Nothing can fire again: drop any stale entries wholesale.
    for (auto& bucket : buckets_) bucket.clear();
    overflow_.clear();
    cur_ = 0;
    return kInfinity;
  }
  for (;;) {
    auto& heap = buckets_[cur_];
    while (!heap.empty()) {
      const QEntry& top = heap.front();
      if (record(top.slot).gen == top.gen) return top.time;
      std::pop_heap(heap.begin(), heap.end(), EntryAfter{});
      heap.pop_back();  // stale (canceled) entry: slot already reclaimed
    }
    advance_bucket();
  }
}

bool Engine::step() {
  if (peek_live_time() == kInfinity) return false;
  auto& heap = buckets_[cur_];
  std::pop_heap(heap.begin(), heap.end(), EntryAfter{});
  const QEntry top = heap.back();
  heap.pop_back();
  Record& rec = record(top.slot);
  now_ = rec.time;
  ++processed_;
  --live_;
  const RawFn fn = rec.fn;
  void* ctx = rec.ctx;
  const std::uint64_t arg = rec.arg;
  // Free first so the slot can be reused by events the handler schedules.
  free_slot(top.slot);
  fn(ctx, arg);
  return true;
}

void Engine::run_until(double end_time) {
  while (peek_live_time() <= end_time) step();
  if (end_time > now_) now_ = end_time;
}

void Engine::run_all() {
  while (step()) {
  }
}

EPP_HOT_END(sim_event_loop);

}  // namespace epp::sim
