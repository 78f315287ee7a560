#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

void Engine::schedule_raw_at(double time, RawFn fn, void* ctx,
                             std::uint64_t arg) {
  // !(time >= now_) also rejects NaN; infinities would park forever in
  // the overflow ladder and break the year-jump logic, so refuse them.
  if (!(time >= now_) || !std::isfinite(time))
    throw std::invalid_argument("Engine::schedule_raw_at: time in the past");
  ++live_;
  insert(QEntry{time, next_seq_++, fn, ctx, arg});
}

void Engine::schedule_raw_after(double delay, RawFn fn, void* ctx,
                                std::uint64_t arg) {
  if (!(delay >= 0.0))
    throw std::invalid_argument("Engine::schedule_raw_after: negative delay");
  schedule_raw_at(now_ + delay, fn, ctx, arg);
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
  place(entry);
}

void Engine::place(const QEntry& entry) {
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

std::vector<Engine::QEntry> Engine::drain_entries() {
  std::vector<QEntry> entries;
  entries.reserve(live_);
  for (auto& bucket : buckets_) {
    entries.insert(entries.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  entries.insert(entries.end(), overflow_.begin(), overflow_.end());
  overflow_.clear();
  return entries;
}

void Engine::rebuild(std::size_t num_buckets) {
  num_buckets = std::clamp(num_buckets, kMinBuckets, kMaxBuckets);
  std::vector<QEntry> live = drain_entries();
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
  // Every bucket is empty, so all pending events sit in the overflow
  // ladder. Jump the calendar straight to the earliest of them (idle
  // years cost nothing) and redistribute.
  double min_t = kInfinity;
  for (const QEntry& e : overflow_) min_t = std::min(min_t, e.time);
  cur_ = 0;
  year_start_ = min_t;
  if (overflow_.size() < buckets_.size() / kGrowFactor &&
      buckets_.size() > kMinBuckets) {
    // Shrink on year boundaries only, so steady-state pops stay cheap.
    rebuild(next_pow2(std::max<std::size_t>(1, overflow_.size())));
    return;
  }
  // Redistribute in place: entries beyond the new year stay in the
  // ladder, compacted to its front, so a year wrap allocates nothing.
  // place() skips insert()'s grow check, which every schedule already
  // passed with the same population.
  const double end = year_end();
  std::size_t kept = 0;
  for (const QEntry& e : overflow_) {
    if (e.time >= end)
      overflow_[kept++] = e;
    else
      place(e);
  }
  overflow_.resize(kept);
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

Engine::Timer Engine::add_timer(RawFn fn, void* ctx) {
  timers_.push_back(TimerRecord{kInfinity, 0, fn, ctx});
  return static_cast<Timer>(timers_.size() - 1);
}

EPP_HOT_BEGIN(sim_event_loop);

void Engine::arm_after(Timer timer, double delay) {
  // The same checks, time and sequence number as schedule_raw_after.
  const double time = now_ + delay;
  if (!(delay >= 0.0) || !std::isfinite(time))
    throw std::invalid_argument("Engine::arm_after: bad delay");
  TimerRecord& rec = timers_[timer];
  if (rec.time == kInfinity) ++armed_;
  rec.time = time;
  rec.seq = next_seq_++;
}

void Engine::disarm(Timer timer) noexcept {
  TimerRecord& rec = timers_[timer];
  if (rec.time == kInfinity) return;
  rec.time = kInfinity;
  --armed_;
}

Engine::TimerRecord* Engine::first_timer() noexcept {
  if (armed_ == 0) return nullptr;
  TimerRecord* first = &timers_.front();
  for (TimerRecord& rec : timers_)
    if (rec.time < first->time ||
        (rec.time == first->time && rec.seq < first->seq))
      first = &rec;
  return first;
}

const Engine::QEntry* Engine::calendar_head() {
  if (live_ == 0) return nullptr;
  while (buckets_[cur_].empty()) advance_bucket();
  return &buckets_[cur_].front();
}

double Engine::peek_live_time() {
  const QEntry* head = calendar_head();
  const TimerRecord* timer = first_timer();
  const double head_time = head != nullptr ? head->time : kInfinity;
  return timer != nullptr ? std::min(timer->time, head_time) : head_time;
}

bool Engine::fire_next(double limit) {
  const QEntry* head = calendar_head();
  TimerRecord* timer = first_timer();
  if (timer != nullptr &&
      (head == nullptr || timer->time < head->time ||
       (timer->time == head->time && timer->seq < head->seq))) {
    if (!(timer->time <= limit)) return false;
    now_ = timer->time;
    ++processed_;
    // Disarm first so the handler may re-arm; copy fn/ctx because it may
    // also register timers (reallocating timers_).
    timer->time = kInfinity;
    --armed_;
    const RawFn fn = timer->fn;
    void* ctx = timer->ctx;
    fn(ctx, 0);
    return true;
  }
  if (head == nullptr || !(head->time <= limit)) return false;
  auto& heap = buckets_[cur_];
  std::pop_heap(heap.begin(), heap.end(), EntryAfter{});
  const QEntry top = heap.back();
  heap.pop_back();
  now_ = top.time;
  ++processed_;
  --live_;
  top.fn(top.ctx, top.arg);
  return true;
}

bool Engine::step() { return fire_next(kInfinity); }

void Engine::run_until(double end_time) {
  while (fire_next(end_time)) {
  }
  if (end_time > now_) now_ = end_time;
}

void Engine::run_all() {
  while (fire_next(kInfinity)) {
  }
}

EPP_HOT_END(sim_event_loop);

}  // namespace epp::sim
