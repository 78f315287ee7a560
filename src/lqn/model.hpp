// Layered queuing network (LQN) model representation.
//
// Follows the stochastic rendezvous network vocabulary of Woodside et al.
// (the paper's reference [17]) restricted to the features the paper uses:
//
//   * processors with a scheduling discipline (PS time-sharing or FIFO) and
//     a relative speed;
//   * tasks bound to a processor, with a finite multiplicity (thread pool /
//     connection pool size) — "the application and database servers can
//     process 50 and 20 requests at the same time via time-sharing";
//   * reference tasks (closed workload classes): a population of clients
//     with an exponential think time, e.g. "number of clients and the mean
//     client think-time is used as the primary measure of the workload";
//   * entries with a mean service demand and synchronous calls to entries
//     of lower-layer tasks with a mean call count (possibly fractional,
//     e.g. browse requests make 1.14 database requests on average).
//
// The call graph must be acyclic and form layers (no entry may call into
// its own task or back up the stack).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lint/diagnostic.hpp"

namespace epp::lqn {

enum class Scheduling { kProcessorSharing, kFifo, kDelay };

using ProcessorId = std::size_t;
using TaskId = std::size_t;
using EntryId = std::size_t;

struct Processor {
  std::string name;
  Scheduling scheduling = Scheduling::kProcessorSharing;
  double speed = 1.0;
  std::size_t multiplicity = 1;
};

struct Task {
  std::string name;
  ProcessorId processor = 0;
  /// Thread/connection pool size; requests beyond it queue for the task.
  std::size_t multiplicity = 1;
  /// Reference (client) tasks drive the workload: closed (a population of
  /// clients with a think time) or open (constant-rate arrivals — the
  /// paper's "some or all clients sending requests at a constant rate").
  bool is_reference = false;
  double population = 0.0;    // closed reference: number of clients
  double think_time_s = 0.0;  // closed reference: mean think time
  bool open_arrivals = false;     // reference only: open workload?
  double arrival_rate_rps = 0.0;  // open reference: arrival rate
  /// Preemptive priority of this workload class (higher = more important;
  /// meaningful on reference tasks, default all equal).
  int priority = 0;
  std::vector<EntryId> entries;
};

struct Call {
  EntryId target = 0;
  double mean_calls = 0.0;
};

struct Entry {
  std::string name;
  TaskId task = 0;
  /// Host-processor demand per invocation, in seconds at speed 1.
  double service_demand_s = 0.0;
  std::vector<Call> calls;
};

/// Factory helpers for the common task shapes (avoids long positional
/// aggregate initialisers as Task grows fields).
Task make_server_task(std::string name, ProcessorId processor,
                      std::size_t multiplicity = 1);
Task make_closed_client_task(std::string name, ProcessorId processor,
                             double population, double think_time_s,
                             int priority = 0);
Task make_open_client_task(std::string name, ProcessorId processor,
                           double arrival_rate_rps, int priority = 0);

/// A validated-on-demand LQN model. Build with the add_* functions (or the
/// ModelBuilder / parser); call validate() before solving.
class Model {
 public:
  ProcessorId add_processor(Processor processor);
  TaskId add_task(Task task);
  EntryId add_entry(Entry entry);
  /// Add a synchronous call from one entry to another.
  void add_call(EntryId from, EntryId to, double mean_calls);

  const std::vector<Processor>& processors() const noexcept { return processors_; }
  const std::vector<Task>& tasks() const noexcept { return tasks_; }
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  Processor& processor(ProcessorId id) { return processors_.at(id); }
  Task& task(TaskId id) { return tasks_.at(id); }
  Entry& entry(EntryId id) { return entries_.at(id); }
  const Processor& processor(ProcessorId id) const { return processors_.at(id); }
  const Task& task(TaskId id) const { return tasks_.at(id); }
  const Entry& entry(EntryId id) const { return entries_.at(id); }

  std::optional<TaskId> find_task(const std::string& name) const;
  std::optional<EntryId> find_entry(const std::string& name) const;
  std::optional<ProcessorId> find_processor(const std::string& name) const;

  std::vector<TaskId> reference_tasks() const;

  /// Throws std::invalid_argument with the first error check_model finds.
  void validate() const;

  /// Visit ratio of every entry per top-level request of reference task
  /// `ref` (the reference entry itself has ratio 1 per call it makes...).
  /// Entry e's value is the expected number of invocations of e triggered
  /// by one think-cycle of a `ref` client.
  std::vector<double> visit_ratios(TaskId ref) const;

 private:
  std::vector<Processor> processors_;
  std::vector<Task> tasks_;
  std::vector<Entry> entries_;
};

/// Declaring source line of each processor, task and entry, indexed by
/// id (parse_model fills it). Ids it does not cover read as line 0, "the
/// whole model", so hand-built models need none.
struct DeclarationLines {
  std::vector<int> processors, tasks, entries;

  int processor(ProcessorId id) const { return at(processors, id); }
  int task(TaskId id) const { return at(tasks, id); }
  int entry(EntryId id) const { return at(entries, id); }

 private:
  static int at(const std::vector<int>& lines, std::size_t id) {
    return id < lines.size() ? lines[id] : 0;
  }
};

/// The error-severity EPP-LQN rules — everything that makes a model
/// unsolvable — as findings located in `file`:
///   EPP-LQN-002  no reference (client) task
///   EPP-LQN-003  cycle in the synchronous call graph
///   EPP-LQN-005  non-finite or negative demand / mean call count
///   EPP-LQN-010  bad reference workload (population / rate / think)
///   EPP-LQN-011  malformed task (no entries; reference != 1 entry;
///                multiplicity 0)
///   EPP-LQN-012  call into the caller's own task or a reference task
///   EPP-LQN-013  processor speed not finite and positive, or
///                multiplicity 0
/// validate() throws the first of them; the lint library adds the
/// advisory rules. A clean model formats no text.
void check_model(const Model& model, std::string_view file,
                 lint::Diagnostics& diagnostics,
                 const DeclarationLines& lines = {});

}  // namespace epp::lqn
