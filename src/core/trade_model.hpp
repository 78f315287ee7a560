// Shared description of the case study (section 3) used by every
// prediction method, plus the builder that turns it into an LQN model.
//
// The calibration values live here rather than in the predictors so one
// calibration (table 2) feeds the layered queuing, hybrid and historical
// models identically, as in the paper.
#pragma once

#include <cstddef>
#include <string>

#include "lint/diagnostic.hpp"
#include "lqn/model.hpp"

namespace epp::core {

/// Per-request-type parameters of the layered queuing method (table 2):
/// mean processing times on each server and DB calls per request.
struct RequestTypeParams {
  double app_demand_s = 0.0;       // app-server CPU per request (speed 1.0)
  double db_cpu_per_call_s = 0.0;  // DB CPU per database request
  double disk_per_call_s = 0.0;    // DB disk per database request
  double mean_db_calls = 0.0;      // DB requests per app-server request
};

/// Calibrated request types: browse and buy (the paper's two classes).
struct TradeCalibration {
  RequestTypeParams browse;
  RequestTypeParams buy;
};

/// An application-server architecture as the models see it: a name and a
/// request-processing-speed ratio relative to the calibration server
/// (AppServF = 1.0), plus the concurrency limits of the system model.
struct ServerArch {
  std::string name;
  double speed = 1.0;
  std::size_t app_concurrency = 50;
  std::size_t db_concurrency = 20;
};

/// A workload: browse and buy client populations with a mean think time.
struct WorkloadSpec {
  double browse_clients = 0.0;
  double buy_clients = 0.0;
  double think_time_s = 7.0;

  double total_clients() const noexcept { return browse_clients + buy_clients; }
  double buy_fraction() const noexcept {
    const double total = total_clients();
    return total > 0.0 ? buy_clients / total : 0.0;
  }
};

/// Rule-coded workload lint (the EPP-WKL-* rules): appends one diagnostic
/// per violated field to `diagnostics`, located at `where`. This is the
/// single source of truth for workload plausibility — validate_workload
/// and the epp_lint grid checks (`epp_check verify`) both run it.
///   EPP-WKL-001 (error)   non-finite or negative client count
///   EPP-WKL-002 (error)   non-finite or negative think time
///   EPP-WKL-003 (error)   buy fraction outside [0, 1]
///   EPP-WKL-004 (warning) empty workload (zero clients; the layered
///                         model cannot be built for it)
void lint_workload(const WorkloadSpec& workload,
                   const lint::SourceLocation& where,
                   lint::Diagnostics& diagnostics);

/// Service-boundary validation: negative or non-finite client counts,
/// non-finite or negative think times (and hence any buy fraction outside
/// [0, 1]) yield a message naming the offending field; empty when the
/// workload is valid. Implemented on top of lint_workload (first
/// error-severity finding wins). Every prediction entry point that
/// accepts caller-supplied workloads checks this before touching a model.
std::string workload_error(const WorkloadSpec& workload);

/// Throws core::InvalidWorkloadError with workload_error()'s message.
void validate_workload(const WorkloadSpec& workload);

/// Build the layered queuing model of the case study: browse/buy client
/// reference tasks -> application-server task (multiplicity 50) on its CPU
/// -> database task (multiplicity 20) on the DB CPU -> disk task on the
/// serial DB disk.
lqn::Model build_trade_lqn(const TradeCalibration& calibration,
                           const ServerArch& server,
                           const WorkloadSpec& workload);

/// Case-study server architectures (speeds from the measured 86/186/320
/// requests/second max throughputs).
ServerArch arch_s();
ServerArch arch_f();
ServerArch arch_vf();

}  // namespace epp::core
