#include "core/trade_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/errors.hpp"

namespace epp::core {

void lint_workload(const WorkloadSpec& workload,
                   const lint::SourceLocation& where,
                   lint::Diagnostics& diagnostics) {
  const std::size_t before = diagnostics.size();
  const auto bad_field = [](const std::string& what, double value) {
    return what + " = " + std::to_string(value);
  };
  if (!std::isfinite(workload.browse_clients) || workload.browse_clients < 0.0)
    diagnostics.error("EPP-WKL-001", where,
                      bad_field("browse_clients", workload.browse_clients),
                      "client counts must be finite and non-negative");
  if (!std::isfinite(workload.buy_clients) || workload.buy_clients < 0.0)
    diagnostics.error("EPP-WKL-001", where,
                      bad_field("buy_clients", workload.buy_clients),
                      "client counts must be finite and non-negative");
  if (!std::isfinite(workload.think_time_s) || workload.think_time_s < 0.0)
    diagnostics.error("EPP-WKL-002", where,
                      bad_field("think_time_s", workload.think_time_s),
                      "think time must be finite and non-negative");
  const double mix = workload.buy_fraction();
  if (mix < 0.0 || mix > 1.0)
    diagnostics.error("EPP-WKL-003", where, bad_field("buy_fraction", mix),
                      "buy fraction must lie within [0, 1]");
  if (diagnostics.size() != before) return;
  if (workload.total_clients() <= 0.0)
    diagnostics.warning("EPP-WKL-004", where,
                        "empty workload (zero clients)",
                        "give the cell a positive client population");
}

std::string workload_error(const WorkloadSpec& workload) {
  lint::Diagnostics diagnostics;
  lint_workload(workload, {}, diagnostics);
  if (const lint::Diagnostic* first =
          diagnostics.first_at_least(lint::Severity::kError))
    return "invalid workload: " + first->message;
  return {};
}

void validate_workload(const WorkloadSpec& workload) {
  if (std::string error = workload_error(workload); !error.empty())
    throw InvalidWorkloadError(error);
}

ServerArch arch_s() { return {"AppServS", 86.0 / 186.0, 50, 20}; }
ServerArch arch_f() { return {"AppServF", 1.0, 50, 20}; }
ServerArch arch_vf() { return {"AppServVF", 320.0 / 186.0, 50, 20}; }

lqn::Model build_trade_lqn(const TradeCalibration& calibration,
                           const ServerArch& server,
                           const WorkloadSpec& workload) {
  if (workload.total_clients() <= 0.0)
    throw std::invalid_argument("build_trade_lqn: empty workload");

  lqn::Model model;

  const auto client_box = model.add_processor(
      {"client_box", lqn::Scheduling::kDelay, 1.0, 1});
  const auto app_cpu = model.add_processor(
      {"app_cpu", lqn::Scheduling::kProcessorSharing, server.speed, 1});
  const auto db_cpu = model.add_processor(
      {"db_cpu", lqn::Scheduling::kProcessorSharing, 1.0, 1});
  const auto db_disk =
      model.add_processor({"db_disk", lqn::Scheduling::kFifo, 1.0, 1});

  const auto app_task = model.add_task(
      lqn::make_server_task("app_server", app_cpu, server.app_concurrency));
  const auto db_task = model.add_task(
      lqn::make_server_task("database", db_cpu, server.db_concurrency));
  const auto disk_task = model.add_task(lqn::make_server_task("disk", db_disk));

  struct TypeEntries {
    lqn::EntryId app, db, disk;
  };
  auto add_type = [&](const std::string& prefix, const RequestTypeParams& p) {
    TypeEntries e{};
    e.app = model.add_entry({prefix + "_request", app_task, p.app_demand_s, {}});
    e.db = model.add_entry({prefix + "_db", db_task, p.db_cpu_per_call_s, {}});
    e.disk =
        model.add_entry({prefix + "_io", disk_task, p.disk_per_call_s, {}});
    model.add_call(e.app, e.db, p.mean_db_calls);
    model.add_call(e.db, e.disk, 1.0);
    return e;
  };
  const TypeEntries browse = add_type("browse", calibration.browse);
  const TypeEntries buy = add_type("buy", calibration.buy);

  auto add_class = [&](const std::string& name, double population,
                       lqn::EntryId target) {
    if (population <= 0.0) return;
    const auto task = model.add_task(lqn::make_closed_client_task(
        name, client_box, population, workload.think_time_s));
    const auto entry = model.add_entry({name + "_cycle", task, 0.0, {}});
    model.add_call(entry, target, 1.0);
  };
  add_class("browse_clients", workload.browse_clients, browse.app);
  add_class("buy_clients", workload.buy_clients, buy.app);

  return model;
}

}  // namespace epp::core
