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

Engine::Engine() : heads_(kMinBuckets, kNil) {}

void Engine::reserve(std::size_t n) {
  pool_.reserve(n);
  next_.reserve(n);
}

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
  const auto n = heads_.size();
  const auto i = static_cast<std::size_t>(idx);
  return i >= n ? n - 1 : i;
}

void Engine::insert(const QEntry& entry) {
  if (live_ > heads_.size() * kGrowFactor && heads_.size() < kMaxBuckets) {
    rebuild(next_pow2(live_ / 2));
    // `entry` is not in the structure yet; rebuild only moved the others.
  }
  if (entry.time >= year_end()) {
    push_new(entry, overflow_);
    return;
  }
  place(entry);
}

void Engine::place(const QEntry& entry) {
  const std::size_t idx = bucket_index(entry.time);
  if (idx <= cur_) {
    // The event lands in (or before) the bucket being drained: keep the
    // heap property so it still pops in global (time, seq) order.
    current_.push_back(entry);
    std::push_heap(current_.begin(), current_.end(), EntryAfter{});
  } else {
    push_new(entry, heads_[idx]);  // unsorted until the calendar arrives
  }
}

void Engine::push_new(const QEntry& entry, Slot& chain) {
  Slot slot = free_;
  if (slot != kNil) {
    free_ = next_[slot];
    pool_[slot] = entry;
  } else {
    slot = static_cast<Slot>(pool_.size());
    pool_.push_back(entry);
    next_.push_back(kNil);
  }
  next_[slot] = chain;
  chain = slot;
}

void Engine::relink(Slot slot) {
  const QEntry& entry = pool_[slot];
  Slot* chain = &overflow_;
  if (entry.time < year_end()) {
    const std::size_t idx = bucket_index(entry.time);
    if (idx <= cur_) {
      // Into the drained bucket's heap; the caller restores heap order.
      current_.push_back(entry);
      next_[slot] = free_;
      free_ = slot;
      return;
    }
    chain = &heads_[idx];
  }
  next_[slot] = *chain;
  *chain = slot;
}

void Engine::relink_chain(Slot chain) {
  while (chain != kNil) {
    const Slot next = next_[chain];
    relink(chain);
    chain = next;
  }
}

void Engine::rebuild(std::size_t num_buckets) {
  num_buckets = std::clamp(num_buckets, kMinBuckets, kMaxBuckets);
  // Chain every pending entry together; the drained bucket's heap goes
  // back into the pool.
  Slot all = overflow_;
  overflow_ = kNil;
  for (Slot& head : heads_) {
    while (head != kNil) {
      const Slot next = next_[head];
      next_[head] = all;
      all = head;
      head = next;
    }
  }
  for (const QEntry& e : current_) push_new(e, all);
  current_.clear();
  heads_.assign(num_buckets, kNil);
  cur_ = 0;
  std::size_t count = 0;
  double min_t = kInfinity, max_t = -kInfinity;
  for (Slot slot = all; slot != kNil; slot = next_[slot]) {
    min_t = std::min(min_t, pool_[slot].time);
    max_t = std::max(max_t, pool_[slot].time);
    ++count;
  }
  // Size buckets so the live population spreads to ~1 event per bucket;
  // everything past the year boundary falls into the overflow ladder.
  year_start_ = count == 0 ? now_ : std::min(now_, min_t);
  const double span = max_t - year_start_;
  bucket_width_ =
      span > 0.0 && count > 0 ? span / static_cast<double>(count) : 1.0;
  relink_chain(all);
  std::make_heap(current_.begin(), current_.end(), EntryAfter{});
}

void Engine::start_new_year() {
  // Every bucket is empty, so all pending events sit in the overflow
  // ladder. Jump the calendar straight to the earliest of them (idle
  // years cost nothing) and redistribute.
  double min_t = kInfinity;
  for (Slot slot = overflow_; slot != kNil; slot = next_[slot])
    min_t = std::min(min_t, pool_[slot].time);
  cur_ = 0;
  year_start_ = min_t;
  if (live_ < heads_.size() / kGrowFactor && heads_.size() > kMinBuckets) {
    // Shrink on year boundaries only, so steady-state pops stay cheap.
    rebuild(next_pow2(std::max<std::size_t>(1, live_)));
    return;
  }
  // Redistribute: entries beyond the new year go back to the ladder.
  // Relinking moves chain links only, so a year wrap allocates nothing.
  const Slot ladder = overflow_;
  overflow_ = kNil;
  relink_chain(ladder);
  std::make_heap(current_.begin(), current_.end(), EntryAfter{});
}

void Engine::advance_bucket() {
  ++cur_;
  while (cur_ < heads_.size() && heads_[cur_] == kNil) ++cur_;
  if (cur_ == heads_.size()) {
    start_new_year();
    return;
  }
  const Slot bucket = heads_[cur_];
  heads_[cur_] = kNil;
  relink_chain(bucket);  // every entry lands in current_
  std::make_heap(current_.begin(), current_.end(), EntryAfter{});
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
  while (current_.empty()) advance_bucket();
  return &current_.front();
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
  std::pop_heap(current_.begin(), current_.end(), EntryAfter{});
  const QEntry top = current_.back();
  current_.pop_back();
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
