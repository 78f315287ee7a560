#include "lqn/model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace epp::lqn {

Task make_server_task(std::string name, ProcessorId processor,
                      std::size_t multiplicity) {
  Task task;
  task.name = std::move(name);
  task.processor = processor;
  task.multiplicity = multiplicity;
  return task;
}

Task make_closed_client_task(std::string name, ProcessorId processor,
                             double population, double think_time_s,
                             int priority) {
  Task task;
  task.name = std::move(name);
  task.processor = processor;
  task.is_reference = true;
  task.population = population;
  task.think_time_s = think_time_s;
  task.priority = priority;
  return task;
}

Task make_open_client_task(std::string name, ProcessorId processor,
                           double arrival_rate_rps, int priority) {
  Task task;
  task.name = std::move(name);
  task.processor = processor;
  task.is_reference = true;
  task.open_arrivals = true;
  task.arrival_rate_rps = arrival_rate_rps;
  task.priority = priority;
  return task;
}

ProcessorId Model::add_processor(Processor processor) {
  processors_.push_back(std::move(processor));
  return processors_.size() - 1;
}

TaskId Model::add_task(Task task) {
  if (task.processor >= processors_.size())
    throw std::invalid_argument("Model: task references unknown processor");
  tasks_.push_back(std::move(task));
  return tasks_.size() - 1;
}

EntryId Model::add_entry(Entry entry) {
  if (entry.task >= tasks_.size())
    throw std::invalid_argument("Model: entry references unknown task");
  const EntryId id = entries_.size();
  tasks_[entry.task].entries.push_back(id);
  entries_.push_back(std::move(entry));
  return id;
}

void Model::add_call(EntryId from, EntryId to, double mean_calls) {
  if (from >= entries_.size() || to >= entries_.size())
    throw std::invalid_argument("Model: call references unknown entry");
  if (mean_calls < 0.0)
    throw std::invalid_argument("Model: negative mean call count");
  entries_[from].calls.push_back(Call{to, mean_calls});
}

std::optional<TaskId> Model::find_task(const std::string& name) const {
  for (TaskId id = 0; id < tasks_.size(); ++id)
    if (tasks_[id].name == name) return id;
  return std::nullopt;
}

std::optional<EntryId> Model::find_entry(const std::string& name) const {
  for (EntryId id = 0; id < entries_.size(); ++id)
    if (entries_[id].name == name) return id;
  return std::nullopt;
}

std::optional<ProcessorId> Model::find_processor(const std::string& name) const {
  for (ProcessorId id = 0; id < processors_.size(); ++id)
    if (processors_[id].name == name) return id;
  return std::nullopt;
}

std::vector<TaskId> Model::reference_tasks() const {
  std::vector<TaskId> refs;
  for (TaskId id = 0; id < tasks_.size(); ++id)
    if (tasks_[id].is_reference) refs.push_back(id);
  return refs;
}

namespace {

/// DFS colouring for cycle detection over the entry call graph.
enum class Visit : unsigned char { kWhite, kGray, kBlack };

bool find_cycle(const Model& model, EntryId entry, std::vector<Visit>& state,
                std::vector<EntryId>& path) {
  state[entry] = Visit::kGray;
  path.push_back(entry);
  for (const Call& call : model.entry(entry).calls) {
    if (state[call.target] == Visit::kGray) {
      path.push_back(call.target);
      return true;
    }
    if (state[call.target] == Visit::kWhite &&
        find_cycle(model, call.target, state, path))
      return true;
  }
  path.pop_back();
  state[entry] = Visit::kBlack;
  return false;
}

/// Locations are built only when a finding is emitted, so a clean model
/// costs no string work.
lint::SourceLocation location(std::string_view file, int line) {
  return {std::string(file), line};
}

void check_processors(const Model& model, std::string_view file,
                      lint::Diagnostics& diagnostics,
                      const DeclarationLines& lines) {
  for (ProcessorId p = 0; p < model.processors().size(); ++p) {
    const Processor& processor = model.processor(p);
    if (!std::isfinite(processor.speed) || processor.speed <= 0.0)
      diagnostics.error("EPP-LQN-013", location(file, lines.processor(p)),
                        "processor '" + processor.name + "' has speed " +
                            lint::fmt_value(processor.speed),
                        "speed divides every demand on the processor; it "
                        "must be finite and positive");
    if (processor.multiplicity == 0)
      diagnostics.error("EPP-LQN-013", location(file, lines.processor(p)),
                        "processor '" + processor.name +
                            "' has multiplicity 0",
                        "a processor needs at least one server");
  }
}

void check_tasks(const Model& model, std::string_view file,
                 lint::Diagnostics& diagnostics,
                 const DeclarationLines& lines) {
  bool any_reference = false;
  for (TaskId t = 0; t < model.tasks().size(); ++t) {
    const Task& task = model.task(t);
    if (task.is_reference) {
      any_reference = true;
      if (task.entries.size() != 1)
        diagnostics.error("EPP-LQN-011", location(file, lines.task(t)),
                          "reference task '" + task.name + "' has " +
                              std::to_string(task.entries.size()) +
                              " entries, wants exactly 1");
      // Written so that NaN fails too.
      if (task.open_arrivals) {
        if (!std::isfinite(task.arrival_rate_rps) ||
            task.arrival_rate_rps <= 0.0)
          diagnostics.error("EPP-LQN-010", location(file, lines.task(t)),
                            "open reference task '" + task.name +
                                "' has arrival rate " +
                                lint::fmt_value(task.arrival_rate_rps),
                            "open workloads want a finite positive rate=");
      } else if (!std::isfinite(task.population) || task.population <= 0.0) {
        diagnostics.error("EPP-LQN-010", location(file, lines.task(t)),
                          "closed reference task '" + task.name +
                              "' has population " +
                              lint::fmt_value(task.population),
                          "closed workloads want a finite positive "
                          "population=");
      }
      if (!std::isfinite(task.think_time_s) || task.think_time_s < 0.0)
        diagnostics.error("EPP-LQN-010", location(file, lines.task(t)),
                          "reference task '" + task.name +
                              "' has think time " +
                              lint::fmt_value(task.think_time_s));
    } else if (task.entries.empty()) {
      diagnostics.error("EPP-LQN-011", location(file, lines.task(t)),
                        "task '" + task.name + "' has no entries",
                        "a server task without entries can never be "
                        "called");
    }
    if (task.multiplicity == 0)
      diagnostics.error("EPP-LQN-011", location(file, lines.task(t)),
                        "task '" + task.name + "' has multiplicity 0");
  }
  if (!any_reference)
    diagnostics.error("EPP-LQN-002", location(file, 0),
                      "no reference task drives the model",
                      "declare a client task with 'ref population=N "
                      "think=S' (or 'ref open rate=R')");
}

void check_calls(const Model& model, std::string_view file,
                 lint::Diagnostics& diagnostics,
                 const DeclarationLines& lines) {
  for (EntryId e = 0; e < model.entries().size(); ++e) {
    const Entry& entry = model.entry(e);
    if (!std::isfinite(entry.service_demand_s) || entry.service_demand_s < 0.0)
      diagnostics.error("EPP-LQN-005", location(file, lines.entry(e)),
                        "entry '" + entry.name + "' has demand " +
                            lint::fmt_value(entry.service_demand_s),
                        "demands are mean seconds of host service and must "
                        "be finite and non-negative");
    for (const Call& call : entry.calls) {
      const Entry& target = model.entry(call.target);
      if (!std::isfinite(call.mean_calls) || call.mean_calls < 0.0)
        diagnostics.error("EPP-LQN-005", location(file, lines.entry(e)),
                          "call " + entry.name + " -> " + target.name +
                              " has mean " + lint::fmt_value(call.mean_calls),
                          "mean call counts must be finite and non-negative");
      if (target.task == entry.task)
        diagnostics.error("EPP-LQN-012", location(file, lines.entry(e)),
                          "call " + entry.name + " -> " + target.name +
                              " stays inside task '" +
                              model.task(entry.task).name + "'",
                          "synchronous calls must descend to a lower layer");
      if (model.task(target.task).is_reference)
        diagnostics.error("EPP-LQN-012", location(file, lines.entry(e)),
                          "call " + entry.name + " -> " + target.name +
                              " enters reference task '" +
                              model.task(target.task).name + "'",
                          "reference tasks only drive the workload; no "
                          "entry may call them");
    }
  }
}

void check_cycles(const Model& model, std::string_view file,
                  lint::Diagnostics& diagnostics,
                  const DeclarationLines& lines) {
  std::vector<Visit> state(model.entries().size(), Visit::kWhite);
  std::vector<EntryId> path;
  for (EntryId entry = 0; entry < model.entries().size(); ++entry) {
    if (state[entry] != Visit::kWhite) continue;
    path.clear();
    if (!find_cycle(model, entry, state, path)) continue;
    // path ends with [.., first-repeated, .., first-repeated]; print the
    // loop segment only.
    const EntryId repeated = path.back();
    std::string loop;
    bool in_loop = false;
    for (const EntryId id : path) {
      if (id == repeated && !in_loop) in_loop = true;
      if (!in_loop) continue;
      if (!loop.empty()) loop += " -> ";
      loop += model.entry(id).name;
    }
    diagnostics.error("EPP-LQN-003", location(file, lines.entry(repeated)),
                      "call cycle: " + loop,
                      "synchronous rendezvous deadlocks on a cycle; the "
                      "call graph must be layered");
    return;  // one cycle report is enough; fixing it re-lints
  }
}

}  // namespace

void check_model(const Model& model, std::string_view file,
                 lint::Diagnostics& diagnostics,
                 const DeclarationLines& lines) {
  check_processors(model, file, diagnostics, lines);
  check_tasks(model, file, diagnostics, lines);
  check_calls(model, file, diagnostics, lines);
  check_cycles(model, file, diagnostics, lines);
}

void Model::validate() const {
  lint::Diagnostics diagnostics;
  check_model(*this, {}, diagnostics);
  if (const lint::Diagnostic* first =
          diagnostics.first_at_least(lint::Severity::kError))
    throw std::invalid_argument("Model: " + first->message);
}

namespace {

void accumulate_visits(const Model& model, EntryId entry, double weight,
                       std::vector<double>& visits) {
  visits[entry] += weight;
  for (const Call& call : model.entry(entry).calls)
    accumulate_visits(model, call.target, weight * call.mean_calls, visits);
}

}  // namespace

std::vector<double> Model::visit_ratios(TaskId ref) const {
  const Task& task = tasks_.at(ref);
  if (!task.is_reference)
    throw std::invalid_argument("Model: visit_ratios on non-reference task");
  std::vector<double> visits(entries_.size(), 0.0);
  accumulate_visits(*this, task.entries.front(), 1.0, visits);
  return visits;
}

}  // namespace epp::lqn
