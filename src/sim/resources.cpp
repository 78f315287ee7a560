#include "sim/resources.hpp"

#include <stdexcept>
#include <utility>

namespace epp::sim {

PsResource::PsResource(Engine& engine, double speed, std::string name)
    : engine_(engine), speed_(speed), name_(std::move(name)) {
  if (speed <= 0.0) throw std::invalid_argument("PsResource: speed <= 0");
  last_update_ = engine_.now();
}

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
  ps.pending_completion_.reset();
  ps.advance_vtime();
  // Numerical guard: the front job is complete by construction.
  auto it = ps.jobs_.begin();
  Continuation done = std::move(it->second.on_complete);
  ps.jobs_.erase(it);
  ps.schedule_next_completion();
  done();
}

void PsResource::schedule_next_completion() {
  engine_.cancel(pending_completion_);
  pending_completion_.reset();
  if (jobs_.empty()) return;
  const double finish_v = jobs_.begin()->first;
  const double dt =
      (finish_v - vtime_) * static_cast<double>(jobs_.size()) / speed_;
  // Raw typed dispatch: completion events are the engine's hottest
  // customers and carry no state beyond `this`.
  pending_completion_ = engine_.schedule_raw_after(std::max(0.0, dt),
                                                   &PsResource::on_completion,
                                                   this);
}

void PsResource::add_job(double demand, Continuation on_complete) {
  if (demand < 0.0) throw std::invalid_argument("PsResource: negative demand");
  advance_vtime();
  const double finish_v = vtime_ + demand;
  jobs_.emplace(finish_v, Job{finish_v, next_seq_++, std::move(on_complete)});
  schedule_next_completion();
}

double PsResource::utilization(double now) const {
  if (now <= 0.0) return 0.0;
  double busy = busy_time_;
  if (!jobs_.empty()) busy += now - last_update_;
  return busy / now;
}

FifoResource::FifoResource(Engine& engine, double speed, std::string name)
    : engine_(engine), speed_(speed), name_(std::move(name)) {
  if (speed <= 0.0) throw std::invalid_argument("FifoResource: speed <= 0");
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
  Job job = std::move(queue_.front());
  queue_.pop_front();
  current_done_ = std::move(job.on_complete);
  engine_.schedule_raw_after(job.demand / speed_, &FifoResource::on_job_done,
                             this);
}

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
      Continuation next = std::move(q.front());
      q.pop_front();
      next();  // slot ownership transfers to the admitted waiter
      return;
    }
  }
  --in_use_;
}

std::size_t SlotPool::waiting() const noexcept {
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

}  // namespace epp::sim
