#include "sim/resources.hpp"

#include <stdexcept>
#include <utility>

#include "util/annotations.hpp"

namespace epp::sim {

PsResource::PsResource(Engine& engine, double speed, std::string name)
    : engine_(engine), speed_(speed), name_(std::move(name)) {
  if (speed <= 0.0) throw std::invalid_argument("PsResource: speed <= 0");
  timer_ = engine_.add_timer(&PsResource::on_completion, this);
  last_update_ = engine_.now();
}

PsResource::~PsResource() { engine_.disarm(timer_); }

double PsResource::utilization(double now) const {
  if (now <= 0.0) return 0.0;
  double busy = busy_time_;
  if (!jobs_.empty()) busy += now - last_update_;
  return busy / now;
}

FifoResource::FifoResource(Engine& engine, double speed, std::string name)
    : engine_(engine), speed_(speed), name_(std::move(name)) {
  if (speed <= 0.0) throw std::invalid_argument("FifoResource: speed <= 0");
  timer_ = engine_.add_timer(&FifoResource::on_job_done, this);
}

FifoResource::~FifoResource() { engine_.disarm(timer_); }

double FifoResource::utilization(double now) const {
  if (now <= 0.0) return 0.0;
  double busy = busy_time_;
  if (busy_) busy += now - busy_since_;
  return busy / now;
}

SlotPool::SlotPool(std::size_t capacity, std::size_t num_queues)
    : capacity_(capacity), queues_(num_queues) {
  if (capacity == 0) throw std::invalid_argument("SlotPool: zero capacity");
  if (num_queues == 0) throw std::invalid_argument("SlotPool: zero queues");
}

std::size_t SlotPool::waiting() const noexcept {
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

// Per-event work of every resource: each request passes through here
// several times, so nothing below may allocate once buffers have grown.
EPP_HOT_BEGIN(sim_resources);

void PsResource::advance_vtime() {
  const double now = engine_.now();
  if (!jobs_.empty()) {
    const double dt = now - last_update_;
    vtime_ += dt * speed_ / static_cast<double>(jobs_.size());
    busy_time_ += dt;
  }
  last_update_ = now;
}

void PsResource::on_completion(void* self, std::uint64_t) {
  auto& ps = *static_cast<PsResource*>(self);
  ps.advance_vtime();
  // Numerical guard: the front job is complete by construction.
  std::pop_heap(ps.jobs_.begin(), ps.jobs_.end(), JobAfter{});
  const std::uint32_t slot = ps.jobs_.back().slot;
  ps.jobs_.pop_back();
  Continuation done = std::move(ps.continuations_[slot]);
  ps.free_slots_.push_back(slot);
  ps.schedule_next_completion();
  done();
}

void PsResource::schedule_next_completion() {
  if (jobs_.empty()) {
    engine_.disarm(timer_);
    return;
  }
  const double finish_v = jobs_.front().finish_vtime;
  const double dt =
      (finish_v - vtime_) * static_cast<double>(jobs_.size()) / speed_;
  engine_.arm_after(timer_, std::max(0.0, dt));
}

void PsResource::add_job(double demand, Continuation on_complete) {
  if (demand < 0.0) throw std::invalid_argument("PsResource: negative demand");
  advance_vtime();
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(continuations_.size());
    continuations_.push_back(std::move(on_complete));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    continuations_[slot] = std::move(on_complete);
  }
  jobs_.push_back(Job{vtime_ + demand, next_seq_++, slot});
  std::push_heap(jobs_.begin(), jobs_.end(), JobAfter{});
  schedule_next_completion();
}

void FifoResource::add_job(double demand, Continuation on_complete) {
  if (demand < 0.0) throw std::invalid_argument("FifoResource: negative demand");
  queue_.push_back(Job{demand, std::move(on_complete)});
  if (!busy_) start_next();
}

void FifoResource::on_job_done(void* self, std::uint64_t) {
  auto& fifo = *static_cast<FifoResource*>(self);
  fifo.busy_time_ += fifo.engine_.now() - fifo.busy_since_;
  Continuation done = std::move(fifo.current_done_);
  fifo.start_next();
  done();
}

void FifoResource::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  busy_since_ = engine_.now();
  Job job = queue_.pop_front();
  current_done_ = std::move(job.on_complete);
  engine_.arm_after(timer_, job.demand / speed_);
}

void SlotPool::acquire(std::size_t queue, Continuation on_acquired) {
  if (queue >= queues_.size())
    throw std::out_of_range("SlotPool: bad queue index");
  if (in_use_ < capacity_) {
    ++in_use_;
    on_acquired();
    return;
  }
  queues_[queue].push_back(std::move(on_acquired));
}

void SlotPool::release() {
  if (in_use_ == 0) throw std::logic_error("SlotPool: release without acquire");
  // Admit the next waiter round-robin across non-empty source queues so no
  // application server can starve the others at the DB tier.
  for (std::size_t probe = 0; probe < queues_.size(); ++probe) {
    auto& q = queues_[(rr_next_ + probe) % queues_.size()];
    if (!q.empty()) {
      rr_next_ = (rr_next_ + probe + 1) % queues_.size();
      Continuation next = q.pop_front();
      next();  // slot ownership transfers to the admitted waiter
      return;
    }
  }
  --in_use_;
}

EPP_HOT_END(sim_resources);

}  // namespace epp::sim
