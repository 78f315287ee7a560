// EPP-LQN-* rules. The error-severity rules live beside the model as
// lqn::check_model, which Model::validate() throws from; this file adds
// the parse mapping (EPP-LQN-001) and the advisory findings validate()
// has no severity lattice for (unreachable tasks, zero-demand leaves,
// saturated pools, reference multiplicities, branch-probability sums).

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "lqn/parser.hpp"

namespace epp::lint {
namespace {

void check_calls(const lqn::Model& model, const std::string& file,
                 Diagnostics& diagnostics,
                 const lqn::DeclarationLines& lines) {
  for (lqn::EntryId e = 0; e < model.entries().size(); ++e) {
    const lqn::Entry& entry = model.entry(e);
    double branch_sum = 0.0;
    bool branch_like = !entry.calls.empty();
    for (const lqn::Call& call : entry.calls) {
      if (call.mean_calls > 1.0 || call.mean_calls <= 0.0) branch_like = false;
      branch_sum += call.mean_calls;
    }
    if (branch_like && entry.calls.size() >= 2 && branch_sum > 1.0 + 1e-9)
      diagnostics.warning(
          "EPP-LQN-009", {file, lines.entry(e)},
          "entry '" + entry.name + "' makes " +
              std::to_string(entry.calls.size()) +
              " sub-unit calls whose means sum to " +
              fmt_value(branch_sum),
          "if these model a probabilistic branch the probabilities "
          "exceed 1; drop this hint if they are independent calls");
    if (entry.calls.empty() && entry.service_demand_s == 0.0 &&
        !model.task(entry.task).is_reference)
      diagnostics.note("EPP-LQN-006", {file, lines.entry(e)},
                       "entry '" + entry.name +
                           "' has zero demand and makes no calls",
                       "a no-op entry usually means a forgotten demand=");
  }
}

void check_reference_multiplicity(const lqn::Model& model,
                                  const std::string& file,
                                  Diagnostics& diagnostics,
                                  const lqn::DeclarationLines& lines) {
  for (lqn::TaskId t = 0; t < model.tasks().size(); ++t) {
    const lqn::Task& task = model.task(t);
    if (task.is_reference && task.multiplicity > 1)
      diagnostics.warning(
          "EPP-LQN-008", {file, lines.task(t)},
          "reference task '" + task.name + "' declares multiplicity " +
              std::to_string(task.multiplicity),
          "client concurrency comes from population/rate; the "
          "multiplicity is ignored");
  }
}

void check_reachability(const lqn::Model& model, const std::string& file,
                        Diagnostics& diagnostics,
                        const lqn::DeclarationLines& lines) {
  std::vector<bool> entry_seen(model.entries().size(), false);
  std::vector<lqn::EntryId> stack;
  for (const lqn::Task& task : model.tasks())
    if (task.is_reference)
      for (const lqn::EntryId entry : task.entries) {
        entry_seen[entry] = true;
        stack.push_back(entry);
      }
  while (!stack.empty()) {
    const lqn::EntryId entry = stack.back();
    stack.pop_back();
    for (const lqn::Call& call : model.entry(entry).calls)
      if (!entry_seen[call.target]) {
        entry_seen[call.target] = true;
        stack.push_back(call.target);
      }
  }
  for (lqn::TaskId t = 0; t < model.tasks().size(); ++t) {
    const lqn::Task& task = model.task(t);
    if (task.is_reference) continue;
    bool reachable = false;
    for (const lqn::EntryId entry : task.entries)
      if (entry_seen[entry]) reachable = true;
    if (!reachable)
      diagnostics.warning("EPP-LQN-004", {file, lines.task(t)},
                          "task '" + task.name +
                              "' is unreachable from every reference task",
                          "no workload ever exercises it; dead model "
                          "surface or a missing call");
  }
}

void check_saturation(const lqn::Model& model, const std::string& file,
                      Diagnostics& diagnostics,
                      const lqn::DeclarationLines& lines) {
  for (const lqn::Task& task : model.tasks()) {
    if (!task.is_reference || task.open_arrivals) continue;
    if (!(task.population > 0.0)) continue;
    // Walk everything this class can reach; a pool smaller than the
    // population is a (deliberate, in the paper's setup) saturation point
    // worth surfacing.
    std::vector<bool> seen(model.entries().size(), false);
    std::vector<lqn::EntryId> stack(task.entries.begin(), task.entries.end());
    for (const lqn::EntryId e : stack) seen[e] = true;
    while (!stack.empty()) {
      const lqn::EntryId entry = stack.back();
      stack.pop_back();
      for (const lqn::Call& call : model.entry(entry).calls)
        if (!seen[call.target]) {
          seen[call.target] = true;
          stack.push_back(call.target);
        }
    }
    for (lqn::TaskId s = 0; s < model.tasks().size(); ++s) {
      const lqn::Task& served = model.task(s);
      if (served.is_reference || served.multiplicity == 0) continue;
      bool touched = false;
      for (const lqn::EntryId entry : served.entries)
        if (seen[entry]) touched = true;
      if (touched &&
          task.population > static_cast<double>(served.multiplicity))
        diagnostics.note(
            "EPP-LQN-007", {file, lines.task(s)},
            "population " + fmt_value(task.population) + " of '" +
                task.name + "' exceeds the " +
                std::to_string(served.multiplicity) + "-wide pool of '" +
                served.name + "'",
            "expected when probing saturation; requests past the pool "
            "width queue");
    }
  }
}

}  // namespace

void lint_lqn_model(const lqn::Model& model, const std::string& file,
                    Diagnostics& diagnostics,
                    const lqn::DeclarationLines& lines) {
  lqn::check_model(model, file, diagnostics, lines);
  check_reference_multiplicity(model, file, diagnostics, lines);
  check_calls(model, file, diagnostics, lines);
  check_reachability(model, file, diagnostics, lines);
  check_saturation(model, file, diagnostics, lines);
}

std::optional<ParsedLqn> lint_lqn_text(const std::string& text,
                                       const std::string& file,
                                       Diagnostics& diagnostics) {
  ParsedLqn parsed;
  try {
    parsed.model = lqn::parse_model(text, &parsed.lines);
  } catch (const std::invalid_argument& error) {
    // Parser messages read "lqn parse error, line N: ..."; lift the line
    // number into the location and keep the tail as the finding.
    const std::string what = error.what();
    const std::string prefix = "lqn parse error, line ";
    int line = 0;
    std::string message = what;
    if (what.rfind(prefix, 0) == 0) {
      std::istringstream tail(what.substr(prefix.size()));
      tail >> line;
      tail.ignore(2);  // ": "
      std::getline(tail, message);
    }
    diagnostics.error("EPP-LQN-001", {file, line}, message);
    return std::nullopt;
  }
  lint_lqn_model(parsed.model, file, diagnostics, parsed.lines);
  return parsed;
}

}  // namespace epp::lint
