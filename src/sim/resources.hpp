// Queueing resources that make up a simulated server.
//
// The paper's system model (section 2) describes each server tier as "a
// single FIFO waiting queue ... both servers can process multiple requests
// concurrently via time-sharing". That decomposes into three primitives:
//
//   * SlotPool      — the admission cap (50 concurrent requests for the app
//                     server, 20 for the DB server) with one FIFO waiting
//                     queue per upstream source (the DB server has one queue
//                     per application server);
//   * PsResource    — a time-shared CPU: egalitarian processor sharing,
//                     simulated exactly with the virtual-time technique;
//   * FifoResource  — a serial device (the DB disk is "a processor that can
//                     only process one request at a time").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace epp::sim {

/// What a resource runs when a job completes or a slot is granted. The
/// resources call it themselves; it never goes through the engine.
using Continuation = std::function<void()>;

/// Egalitarian processor sharing at a fixed total speed. A job with demand
/// d (seconds of work at speed 1) completes after attaining d/speed seconds
/// of virtual service. With n active jobs each progresses at speed/n.
class PsResource {
 public:
  PsResource(Engine& engine, double speed, std::string name = "ps");

  /// Begin serving a job; on_complete fires when its demand is exhausted.
  void add_job(double demand, Continuation on_complete);

  std::size_t active_jobs() const noexcept { return jobs_.size(); }
  const std::string& name() const noexcept { return name_; }
  double speed() const noexcept { return speed_; }

  /// Fraction of [0, now] during which the CPU had work (integrated).
  double utilization(double now) const;

 private:
  struct Job {
    double finish_vtime;
    std::uint64_t seq;
    Continuation on_complete;
    bool operator<(const Job& other) const noexcept {
      if (finish_vtime != other.finish_vtime)
        return finish_vtime < other.finish_vtime;
      return seq < other.seq;
    }
  };

  void advance_vtime();
  void schedule_next_completion();
  static void on_completion(void* self, std::uint64_t);

  Engine& engine_;
  double speed_;
  std::string name_;
  // Jobs keyed by the virtual time at which they finish. std::multimap keeps
  // them ordered; the front is always the next completion.
  std::multimap<double, Job> jobs_;
  double vtime_ = 0.0;
  double last_update_ = 0.0;
  double busy_time_ = 0.0;
  std::uint64_t next_seq_ = 0;
  Engine::Handle pending_completion_;
};

/// Single-server FIFO queue (used for the DB disk).
class FifoResource {
 public:
  FifoResource(Engine& engine, double speed, std::string name = "fifo");

  void add_job(double demand, Continuation on_complete);

  std::size_t queue_length() const noexcept { return queue_.size(); }
  bool busy() const noexcept { return busy_; }
  double utilization(double now) const;

 private:
  struct Job {
    double demand;
    Continuation on_complete;
  };

  void start_next();
  static void on_job_done(void* self, std::uint64_t);

  Engine& engine_;
  double speed_;
  std::string name_;
  std::deque<Job> queue_;
  Continuation current_done_;  // completion of the job in service
  bool busy_ = false;
  double busy_time_ = 0.0;
  double busy_since_ = 0.0;
};

/// Admission limiter with per-source FIFO waiting queues. Models the
/// server's concurrency cap: a request must hold a slot for its entire stay
/// (including time blocked on downstream calls). When a slot frees, waiting
/// requests are admitted FIFO, round-robin across non-empty source queues —
/// this realises "one FIFO queue per application server" at the DB tier.
class SlotPool {
 public:
  SlotPool(std::size_t capacity, std::size_t num_queues = 1);

  /// Request a slot on behalf of source queue `queue`; on_acquired runs
  /// immediately if a slot is free, otherwise when one is released.
  void acquire(std::size_t queue, Continuation on_acquired);

  /// Release a held slot, admitting the next waiter if any.
  void release();

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t in_use() const noexcept { return in_use_; }
  std::size_t waiting() const noexcept;

 private:
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  std::vector<std::deque<Continuation>> queues_;
  std::size_t rr_next_ = 0;
};

}  // namespace epp::sim
