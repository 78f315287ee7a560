// The layered queuing solver: the EPP stand-in for LQNS.
//
// Solving proceeds in three steps:
//   1. Flatten: per reference task (workload class), compute visit ratios
//      through the call graph and accumulate per-processor service demands.
//      For processor-sharing processors and exponential demands this
//      flattening is exact for mean values (BCMP separability).
//   2. Layer: task thread/connection pools that could constrain throughput
//      below the processor bound get a surrogate multiserver station whose
//      demand is the task's light-load execution time (own demand plus
//      nested synchronous calls) — the layered correction.
//   3. Solve the resulting closed multiclass network with MVA, using the
//      configured convergence criterion (paper: 20 ms for LQNS).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lqn/model.hpp"
#include "lqn/mva.hpp"

namespace epp::lqn {

struct SolverOptions {
  /// Fixed-point stopping rule on per-class response times. The paper's
  /// LQNS runs used 20 ms (0.020); EPP defaults tighter since its solver
  /// is cheap, but experiments reproducing figure 3 set 0.020.
  double convergence_tol_s = 1e-6;
  /// Bound on the outer (software/hardware alternation) fixed point. Near
  /// the saturation knee the loop needs the adaptive-damping ramp (about
  /// 70 iterations); converged solves exit early regardless of the bound.
  /// LayeredSolver::solve never throws on divergence — it reports through
  /// SolveResult::converged, and predictors surface a non-converged solve
  /// as core::SolverDivergedError.
  int max_layer_iterations = 160;
};

/// Steps 1 and 2 above: the closed (and open) network a model flattens
/// to, with every surrogate thread-pool station's demand initialised
/// from the task's light-load holding time. The solver iterates on it;
/// the EPP-SEM convergence pre-checker reads it as is.
struct Flattened {
  std::vector<TaskId> refs;                    // closed class id -> ref task
  std::vector<TaskId> open_refs;               // open class id -> ref task
  std::vector<std::size_t> proc_station;       // processor -> station index
  std::vector<ProcessorId> station_proc;       // station -> processor
  std::vector<TaskId> finite_tasks;            // tasks given surrogates
  std::vector<std::size_t> task_station;       // task -> surrogate station (or npos)
  std::vector<double> light_s;                 // [task] light-load time per visit
  ClosedNetwork network;                       // stations: processors then surrogates
  std::vector<std::vector<double>> task_visits;       // [closed class][task]
  std::vector<std::vector<double>> open_task_visits;  // [open class][task]
  // Processor stations reachable from (below) each task, self included.
  std::vector<std::set<std::size_t>> below_proc_stations;   // [task]
  std::vector<std::set<TaskId>> below_finite_tasks;         // [task], self excl.
};

/// Flatten a valid model (see Model::validate; a call cycle would recurse
/// without end).
Flattened flatten(const Model& model);

struct ClassPrediction {
  std::string name;           // reference task name
  bool open = false;          // open (constant-rate) workload class?
  double population = 0.0;    // closed classes
  double think_time_s = 0.0;
  double response_time_s = 0.0;  // mean, think time excluded
  double throughput_rps = 0.0;   // open classes: the arrival rate
};

struct SolveResult {
  std::vector<ClassPrediction> classes;
  std::map<std::string, double> processor_utilization;  // per processor
  std::map<std::string, double> task_utilization;       // per served task
  int iterations = 0;
  bool converged = false;
  double solve_time_s = 0.0;

  const ClassPrediction& cls(const std::string& name) const;
  double response_time_s(const std::string& name) const {
    return cls(name).response_time_s;
  }
  double throughput_rps(const std::string& name) const {
    return cls(name).throughput_rps;
  }
  /// Workload-weighted mean response time across all classes.
  double mean_response_time_s() const;
  double total_throughput_rps() const;
};

class LayeredSolver {
 public:
  explicit LayeredSolver(SolverOptions options = {}) : options_(options) {}

  const SolverOptions& options() const noexcept { return options_; }

  /// Validate and solve. Throws std::invalid_argument on malformed models.
  SolveResult solve(const Model& model) const;

  /// Asymptotic total-throughput estimate (the LQN prediction of "max
  /// throughput"): population -> infinity limit with class demands
  /// weighted by population share. Because the realised mix at saturation
  /// shifts toward cheaper classes, the true limit can exceed this by a
  /// few percent on strongly heterogeneous mixes.
  double max_throughput_bound_rps(const Model& model) const;

 private:
  SolverOptions options_;
};

}  // namespace epp::lqn
