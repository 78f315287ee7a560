#include "lqn/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "util/cancellation.hpp"
#include "util/timer.hpp"

namespace epp::lqn {

const ClassPrediction& SolveResult::cls(const std::string& name) const {
  for (const ClassPrediction& c : classes)
    if (c.name == name) return c;
  throw std::out_of_range("SolveResult: unknown class '" + name + "'");
}

double SolveResult::mean_response_time_s() const {
  double weighted = 0.0, total_x = 0.0;
  for (const ClassPrediction& c : classes) {
    weighted += c.throughput_rps * c.response_time_s;
    total_x += c.throughput_rps;
  }
  return total_x > 0.0 ? weighted / total_x : 0.0;
}

double SolveResult::total_throughput_rps() const {
  double total = 0.0;
  for (const ClassPrediction& c : classes) total += c.throughput_rps;
  return total;
}

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

void collect_below(const Model& model, TaskId task,
                   std::set<ProcessorId>& procs, std::set<TaskId>& tasks,
                   std::set<TaskId>& seen) {
  if (!seen.insert(task).second) return;
  procs.insert(model.task(task).processor);
  tasks.insert(task);
  for (EntryId e : model.task(task).entries)
    for (const Call& call : model.entry(e).calls)
      collect_below(model, model.entry(call.target).task, procs, tasks, seen);
}

/// Light-load execution time of an entry (own demand plus nested calls).
double light_exec_time(const Model& model, EntryId e) {
  const Entry& entry = model.entry(e);
  double time = entry.service_demand_s /
                model.processor(model.task(entry.task).processor).speed;
  for (const Call& call : entry.calls)
    time += call.mean_calls * light_exec_time(model, call.target);
  return time;
}

}  // namespace

Flattened flatten(const Model& model) {
  Flattened f;
  for (TaskId ref : model.reference_tasks())
    (model.task(ref).open_arrivals ? f.open_refs : f.refs).push_back(ref);
  const std::size_t nc = f.refs.size();
  const std::size_t no = f.open_refs.size();
  const std::size_t ne = model.entries().size();
  const std::size_t nt = model.tasks().size();

  std::vector<std::vector<double>> visits(nc);       // [closed class][entry]
  for (std::size_t c = 0; c < nc; ++c) visits[c] = model.visit_ratios(f.refs[c]);
  std::vector<std::vector<double>> open_visits(no);  // [open class][entry]
  for (std::size_t c = 0; c < no; ++c)
    open_visits[c] = model.visit_ratios(f.open_refs[c]);

  // Processor stations: only processors hosting non-reference entries.
  f.proc_station.assign(model.processors().size(), kNpos);
  for (EntryId e = 0; e < ne; ++e) {
    const Entry& entry = model.entry(e);
    if (model.task(entry.task).is_reference) continue;
    const ProcessorId p = model.task(entry.task).processor;
    if (f.proc_station[p] == kNpos) {
      f.proc_station[p] = f.network.stations.size();
      f.station_proc.push_back(p);
      const Processor& proc = model.processor(p);
      Station station;
      station.name = proc.name;
      if (proc.scheduling == Scheduling::kDelay) {
        station.kind = StationKind::kDelay;
      } else if (proc.multiplicity > 1) {
        station.kind = StationKind::kMultiServer;
        station.servers = proc.multiplicity;
      } else {
        station.kind = StationKind::kQueueing;
      }
      f.network.stations.push_back(station);
    }
  }

  // Per-class demands at processor stations; reference-entry own demand is
  // folded into the think time (the client "processor" is a pure delay).
  f.network.population.assign(nc, 0.0);
  f.network.think_time_s.assign(nc, 0.0);
  f.network.demands.assign(
      nc, std::vector<double>(f.network.stations.size(), 0.0));
  for (std::size_t c = 0; c < nc; ++c) {
    const Task& ref = model.task(f.refs[c]);
    f.network.class_names.push_back(ref.name);
    f.network.population[c] = ref.population;
    f.network.think_time_s[c] = ref.think_time_s;
    for (EntryId e = 0; e < ne; ++e) {
      if (visits[c][e] == 0.0) continue;
      const Entry& entry = model.entry(e);
      const Task& task = model.task(entry.task);
      const Processor& proc = model.processor(task.processor);
      const double time = visits[c][e] * entry.service_demand_s / proc.speed;
      if (task.is_reference) {
        f.network.think_time_s[c] += time;
      } else {
        f.network.demands[c][f.proc_station[task.processor]] += time;
      }
    }
  }
  // Closed-class priorities (only set when they differ).
  bool any_priority = false;
  for (std::size_t c = 0; c < nc; ++c)
    any_priority = any_priority || model.task(f.refs[c]).priority != 0;
  if (any_priority) {
    f.network.priority.resize(nc);
    for (std::size_t c = 0; c < nc; ++c)
      f.network.priority[c] = model.task(f.refs[c]).priority;
  }
  // Open workload classes: constant-rate arrival streams with the same
  // per-station demand accumulation (their own-entry demand is service,
  // not think time, but reference entries conventionally have none).
  for (std::size_t c = 0; c < no; ++c) {
    const Task& ref = model.task(f.open_refs[c]);
    OpenClass open;
    open.name = ref.name;
    open.arrival_rps = ref.arrival_rate_rps;
    open.demands.assign(f.network.stations.size(), 0.0);
    for (EntryId e = 0; e < ne; ++e) {
      if (open_visits[c][e] == 0.0) continue;
      const Entry& entry = model.entry(e);
      const Task& task = model.task(entry.task);
      if (task.is_reference) continue;
      const Processor& proc = model.processor(task.processor);
      open.demands[f.proc_station[task.processor]] +=
          open_visits[c][e] * entry.service_demand_s / proc.speed;
    }
    f.network.open_classes.push_back(std::move(open));
  }

  // Task visit counts per class.
  f.task_visits.assign(nc, std::vector<double>(nt, 0.0));
  for (std::size_t c = 0; c < nc; ++c)
    for (EntryId e = 0; e < ne; ++e)
      f.task_visits[c][model.entry(e).task] += visits[c][e];
  f.open_task_visits.assign(no, std::vector<double>(nt, 0.0));
  for (std::size_t c = 0; c < no; ++c)
    for (EntryId e = 0; e < ne; ++e)
      f.open_task_visits[c][model.entry(e).task] += open_visits[c][e];

  // Finite-multiplicity (non-reference) tasks get surrogate stations that
  // model queueing for a thread: demand visits * S_t / multiplicity.
  f.task_station.assign(nt, kNpos);
  f.below_proc_stations.resize(nt);
  f.below_finite_tasks.resize(nt);
  std::vector<std::size_t> tasks_on_processor(model.processors().size(), 0);
  for (TaskId t = 0; t < nt; ++t)
    if (!model.task(t).is_reference)
      ++tasks_on_processor[model.task(t).processor];
  for (TaskId t = 0; t < nt; ++t) {
    const Task& task = model.task(t);
    if (task.is_reference) continue;
    // A single-threaded *leaf* task alone on its processor is already
    // fully serialised by the hardware station; a surrogate would only
    // double-count it. (A task that makes downstream calls holds its
    // thread longer than its own processor demand, so it still needs
    // one — that is the layered effect.)
    const bool leaf = [&] {
      for (EntryId e : task.entries)
        if (!model.entry(e).calls.empty()) return false;
      return true;
    }();
    if (task.multiplicity == 1 && leaf &&
        tasks_on_processor[task.processor] == 1)
      continue;
    f.finite_tasks.push_back(t);
    f.task_station[t] = f.network.stations.size();
    Station station;
    station.name = task.name + ".threads";
    station.kind = StationKind::kQueueing;
    f.network.stations.push_back(station);
    for (auto& row : f.network.demands) row.push_back(0.0);
    for (auto& open : f.network.open_classes) open.demands.push_back(0.0);
  }
  for (TaskId t : f.finite_tasks) {
    std::set<ProcessorId> procs;
    std::set<TaskId> tasks, seen;
    collect_below(model, t, procs, tasks, seen);
    for (ProcessorId p : procs)
      if (f.proc_station[p] != kNpos)
        f.below_proc_stations[t].insert(f.proc_station[p]);
    for (TaskId lower : tasks)
      if (lower != t && f.task_station[lower] != kNpos)
        f.below_finite_tasks[t].insert(lower);
  }

  // Initialise surrogate demands from light-load task service times.
  f.light_s.assign(nt, 0.0);
  for (TaskId t : f.finite_tasks) {
    const Task& task = model.task(t);
    double total = 0.0, weight = 0.0;
    for (EntryId e : task.entries) {
      // weight by class-0 visits as a neutral default; refined per class in
      // the surrogate demand below via task_visits.
      total += light_exec_time(model, e);
      weight += 1.0;
    }
    f.light_s[t] = weight > 0.0 ? total / weight : 0.0;
  }
  for (std::size_t c = 0; c < nc; ++c)
    for (TaskId t : f.finite_tasks)
      f.network.demands[c][f.task_station[t]] =
          f.task_visits[c][t] * f.light_s[t] /
          static_cast<double>(model.task(t).multiplicity);
  for (std::size_t c = 0; c < no; ++c)
    for (TaskId t : f.finite_tasks)
      f.network.open_classes[c].demands[f.task_station[t]] =
          f.open_task_visits[c][t] * f.light_s[t] /
          static_cast<double>(model.task(t).multiplicity);
  return f;
}

SolveResult LayeredSolver::solve(const Model& model) const {
  util::Timer timer;
  model.validate();
  Flattened f = flatten(model);
  const std::size_t nc = f.refs.size();

  MvaOptions mva_options;
  mva_options.rt_tolerance_s = options_.convergence_tol_s;

  MvaResult top = solve_bard_schweitzer(f.network, mva_options);
  int layer_iterations = 1;
  bool layers_converged = true;

  if (!f.finite_tasks.empty()) {
    // Order finite tasks bottom-up so lower-layer surrogate demands are
    // fresh when computing upper-layer service times.
    std::vector<TaskId> order = f.finite_tasks;
    std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
      return f.below_finite_tasks[a].size() < f.below_finite_tasks[b].size();
    });

    // Each finite task's sub-network (one thread-cycle through its
    // subtree) keeps its stations and open classes for the whole solve;
    // a layer iteration refills only its populations and demand rows.
    // Open workloads flowing through the subtree shrink the capacity the
    // threads see, so they are carried into the sub-network unchanged.
    std::vector<std::vector<std::size_t>> sub_stations(order.size());
    std::vector<ClosedNetwork> subs(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const TaskId t = order[i];
      sub_stations[i].assign(f.below_proc_stations[t].begin(),
                             f.below_proc_stations[t].end());
      for (TaskId lower : f.below_finite_tasks[t])
        sub_stations[i].push_back(f.task_station[lower]);
      for (std::size_t s : sub_stations[i])
        subs[i].stations.push_back(f.network.stations[s]);
      for (const OpenClass& open : f.network.open_classes) {
        OpenClass sub_open;
        sub_open.name = open.name;
        sub_open.arrival_rps = open.arrival_rps;
        for (std::size_t s : sub_stations[i])
          sub_open.demands.push_back(open.demands[s]);
        subs[i].open_classes.push_back(std::move(sub_open));
      }
    }

    const util::CancellationToken* cancel = util::current_cancellation();
    std::vector<double> prev_rt(nc, 0.0);
    std::vector<double> inside(nc);
    std::vector<std::size_t> sub_classes;
    layers_converged = false;
    for (int iter = 0;
         iter < options_.max_layer_iterations && !layers_converged; ++iter) {
      if (cancel != nullptr && cancel->cancelled())
        throw util::Cancelled("layered solve cancelled");
      ++layer_iterations;
      // Near the saturation knee the surrogate-demand fixed point can fall
      // into a small limit cycle under the default averaging. Heavier
      // damping (Krasnoselskii averaging) is a standard remedy; ramp it up
      // only after the default damping has had 30 iterations, so every
      // previously-converging solve is untouched.
      double keep = 0.5;
      for (int ramp = 30; iter >= ramp && keep < 0.97; ramp += 30)
        keep = 0.5 * (1.0 + keep);
      for (std::size_t i = 0; i < order.size(); ++i) {
        const TaskId t = order[i];
        const double m = static_cast<double>(model.task(t).multiplicity);
        // Customers concurrently inside the task's subtree, per class.
        double inside_total = 0.0;
        for (std::size_t c = 0; c < nc; ++c) {
          inside[c] = 0.0;
          for (std::size_t s : f.below_proc_stations[t])
            inside[c] += top.station_queue[c][s];
          for (TaskId lower : f.below_finite_tasks[t])
            inside[c] += top.station_queue[c][f.task_station[lower]];
          inside_total += inside[c];
        }
        if (inside_total <= 1e-12) continue;
        const double pool = std::min(m, inside_total);

        ClosedNetwork& sub = subs[i];
        sub_classes.clear();
        sub.population.clear();
        for (std::size_t c = 0; c < nc; ++c) {
          const double share = inside[c] / inside_total;
          const double pop = pool * share;
          if (pop < 1e-9 || f.task_visits[c][t] <= 0.0) continue;
          sub_classes.push_back(c);
          sub.population.push_back(pop);
        }
        if (sub.population.empty()) continue;
        sub.think_time_s.assign(sub_classes.size(), 0.0);
        sub.demands.resize(sub_classes.size());
        for (std::size_t j = 0; j < sub_classes.size(); ++j) {
          const std::size_t c = sub_classes[j];
          std::vector<double>& row = sub.demands[j];
          row.clear();
          for (std::size_t s : sub_stations[i])
            row.push_back(f.network.demands[c][s] / f.task_visits[c][t]);
        }
        const MvaResult sub_result = solve_bard_schweitzer(sub, mva_options);

        // New surrogate demand: queueing for one of m threads whose
        // holding time is the sub-network response time.
        for (std::size_t j = 0; j < sub_classes.size(); ++j) {
          const std::size_t c = sub_classes[j];
          const double s_t = sub_result.response_time_s[j];
          const double target = f.task_visits[c][t] * s_t / m;
          double& demand = f.network.demands[c][f.task_station[t]];
          demand = keep * demand + (1.0 - keep) * target;  // damped update
        }
      }

      top = solve_bard_schweitzer(f.network, mva_options);
      double delta = 0.0;
      for (std::size_t c = 0; c < nc; ++c)
        delta = std::max(delta, std::abs(top.response_time_s[c] - prev_rt[c]));
      for (std::size_t c = 0; c < nc; ++c) prev_rt[c] = top.response_time_s[c];
      layers_converged = delta < options_.convergence_tol_s;
    }
  }

  SolveResult result;
  for (std::size_t c = 0; c < nc; ++c) {
    const Task& ref = model.task(f.refs[c]);
    ClassPrediction prediction;
    prediction.name = ref.name;
    prediction.population = ref.population;
    prediction.think_time_s = ref.think_time_s;
    prediction.response_time_s = top.response_time_s[c];
    prediction.throughput_rps = top.throughput_rps[c];
    result.classes.push_back(prediction);
  }
  for (std::size_t c = 0; c < f.open_refs.size(); ++c) {
    const Task& ref = model.task(f.open_refs[c]);
    ClassPrediction prediction;
    prediction.name = ref.name;
    prediction.open = true;
    prediction.response_time_s = top.open_response_time_s[c];
    prediction.throughput_rps = ref.arrival_rate_rps;  // open: in == out
    result.classes.push_back(prediction);
  }
  for (std::size_t s = 0; s < f.station_proc.size(); ++s)
    result.processor_utilization[model.processor(f.station_proc[s]).name] =
        top.station_utilization[s];
  for (TaskId t : f.finite_tasks) {
    // Fraction of the task's threads that are busy.
    double busy = 0.0;
    const double m = static_cast<double>(model.task(t).multiplicity);
    for (std::size_t c = 0; c < nc; ++c)
      busy += top.throughput_rps[c] * f.network.demands[c][f.task_station[t]];
    // Surrogate demand is visits*S/m, so X*demand = X*visits*S/m, the
    // fraction of the m threads that are busy.
    (void)m;
    result.task_utilization[model.task(t).name] = busy;
  }
  result.iterations = layer_iterations;
  result.converged = top.converged && layers_converged;
  result.solve_time_s = timer.elapsed_seconds();
  return result;
}

double LayeredSolver::max_throughput_bound_rps(const Model& model) const {
  model.validate();
  const Flattened f = flatten(model);
  const std::size_t nc = f.refs.size();
  double total_pop = 0.0;
  for (std::size_t c = 0; c < nc; ++c) total_pop += f.network.population[c];
  if (total_pop <= 0.0) return 0.0;  // purely open workload: no closed bound
  double bound = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < f.station_proc.size(); ++s) {
    if (f.network.stations[s].kind == StationKind::kDelay) continue;
    double mix_demand = 0.0;
    for (std::size_t c = 0; c < nc; ++c)
      mix_demand += f.network.population[c] / total_pop * f.network.demands[c][s];
    // Open classes consume a fixed share of the station's capacity.
    double open_util = 0.0;
    for (const OpenClass& open : f.network.open_classes)
      open_util += open.arrival_rps * open.demands[s];
    if (f.network.stations[s].kind == StationKind::kMultiServer) {
      const double m = static_cast<double>(f.network.stations[s].servers);
      mix_demand /= m;
      open_util /= m;
    }
    if (mix_demand > 0.0)
      bound = std::min(bound, std::max(0.0, 1.0 - open_util) / mix_demand);
  }
  double max_demand = bound > 0.0 && std::isfinite(bound) ? 1.0 / bound : 0.0;
  // Thread pools can also bound throughput: m / light-load holding time.
  for (TaskId t : f.finite_tasks) {
    double mix_demand = 0.0;
    for (std::size_t c = 0; c < nc; ++c)
      mix_demand += f.network.population[c] / total_pop *
                    f.task_visits[c][t] * f.light_s[t] /
                    static_cast<double>(model.task(t).multiplicity);
    max_demand = std::max(max_demand, mix_demand);
  }
  if (max_demand <= 0.0) return 0.0;
  return 1.0 / max_demand;
}

}  // namespace epp::lqn
