#include "lqn/model.hpp"

#include <cmath>
#include <stdexcept>

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

enum class VisitState : unsigned char { kUnvisited, kInProgress, kDone };

void check_acyclic(const Model& model, EntryId entry,
                   std::vector<VisitState>& state) {
  VisitState& s = state[entry];
  if (s == VisitState::kDone) return;
  if (s == VisitState::kInProgress)
    throw std::invalid_argument("Model: call graph contains a cycle through entry '" +
                                model.entry(entry).name + "'");
  s = VisitState::kInProgress;
  for (const Call& call : model.entry(entry).calls)
    check_acyclic(model, call.target, state);
  s = VisitState::kDone;
}

}  // namespace

void Model::validate() const {
  if (reference_tasks().empty())
    throw std::invalid_argument("Model: no reference (client) task");
  for (const Task& task : tasks_) {
    if (task.is_reference) {
      // Written so that NaN fails too, as in the EPP-LQN lint rules.
      if (task.open_arrivals) {
        if (!std::isfinite(task.arrival_rate_rps) ||
            task.arrival_rate_rps <= 0.0)
          throw std::invalid_argument("Model: open reference task '" +
                                      task.name +
                                      "' needs a finite positive arrival rate");
      } else if (!std::isfinite(task.population) || task.population <= 0.0) {
        throw std::invalid_argument("Model: reference task '" + task.name +
                                    "' needs a finite positive population");
      }
      if (!std::isfinite(task.think_time_s) || task.think_time_s < 0.0)
        throw std::invalid_argument("Model: reference task '" + task.name +
                                    "' needs a finite non-negative think time");
      if (task.entries.size() != 1)
        throw std::invalid_argument("Model: reference task '" + task.name +
                                    "' must have exactly one entry");
    }
    if (task.entries.empty())
      throw std::invalid_argument("Model: task '" + task.name +
                                  "' has no entries");
    if (task.multiplicity == 0)
      throw std::invalid_argument("Model: task '" + task.name +
                                  "' has zero multiplicity");
  }
  for (const Entry& entry : entries_) {
    if (!std::isfinite(entry.service_demand_s) || entry.service_demand_s < 0.0)
      throw std::invalid_argument("Model: entry '" + entry.name +
                                  "' needs a finite non-negative demand");
    for (const Call& call : entry.calls) {
      const Entry& target = entries_.at(call.target);
      if (!std::isfinite(call.mean_calls) || call.mean_calls < 0.0)
        throw std::invalid_argument("Model: a call from entry '" + entry.name +
                                    "' needs a finite non-negative mean");
      if (tasks_[target.task].is_reference)
        throw std::invalid_argument("Model: entry '" + entry.name +
                                    "' calls into a reference task");
      if (target.task == entry.task)
        throw std::invalid_argument("Model: entry '" + entry.name +
                                    "' calls its own task");
    }
  }
  std::vector<VisitState> state(entries_.size(), VisitState::kUnvisited);
  for (EntryId id = 0; id < entries_.size(); ++id)
    check_acyclic(*this, id, state);
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
