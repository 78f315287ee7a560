#include "lqn/mva.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/cancellation.hpp"

namespace epp::lqn {

void ClosedNetwork::check() const {
  const std::size_t c = num_classes();
  const std::size_t k = num_stations();
  if (c == 0 && open_classes.empty())
    throw std::invalid_argument("ClosedNetwork: no classes");
  if (k == 0) throw std::invalid_argument("ClosedNetwork: no stations");
  if (think_time_s.size() != c || demands.size() != c)
    throw std::invalid_argument("ClosedNetwork: per-class arrays mismatched");
  if (!class_names.empty() && class_names.size() != c)
    throw std::invalid_argument("ClosedNetwork: class_names size mismatched");
  if (!priority.empty() && priority.size() != c)
    throw std::invalid_argument("ClosedNetwork: priority size mismatched");
  for (std::size_t i = 0; i < c; ++i) {
    if (population[i] <= 0.0)
      throw std::invalid_argument("ClosedNetwork: non-positive population");
    if (think_time_s[i] < 0.0)
      throw std::invalid_argument("ClosedNetwork: negative think time");
    if (demands[i].size() != k)
      throw std::invalid_argument("ClosedNetwork: demand row mismatched");
    for (double d : demands[i])
      if (d < 0.0) throw std::invalid_argument("ClosedNetwork: negative demand");
  }
  for (const OpenClass& open : open_classes) {
    if (open.arrival_rps < 0.0)
      throw std::invalid_argument("ClosedNetwork: negative arrival rate");
    if (open.demands.size() != k)
      throw std::invalid_argument("ClosedNetwork: open demand row mismatched");
    for (double d : open.demands)
      if (d < 0.0)
        throw std::invalid_argument("ClosedNetwork: negative open demand");
  }
  for (const Station& s : stations)
    if (s.kind == StationKind::kMultiServer && s.servers == 0)
      throw std::invalid_argument("ClosedNetwork: zero-server station");
}

namespace {

/// Effective queueing/delay split for the Seidmann multiserver transform.
struct SplitDemand {
  double queueing;  // contended portion
  double delay;     // uncontended portion
};

SplitDemand split_demand(const Station& station, double demand) {
  switch (station.kind) {
    case StationKind::kDelay:
      return {0.0, demand};
    case StationKind::kQueueing:
      return {demand, 0.0};
    case StationKind::kMultiServer: {
      const double m = static_cast<double>(station.servers);
      return {demand / m, demand * (m - 1.0) / m};
    }
  }
  return {demand, 0.0};
}

/// Per-station utilisation contributed by the open classes (per server).
std::vector<double> open_utilization(const ClosedNetwork& network) {
  std::vector<double> u(network.num_stations(), 0.0);
  for (const OpenClass& open : network.open_classes)
    for (std::size_t s = 0; s < u.size(); ++s) {
      double load = open.arrival_rps * open.demands[s];
      if (network.stations[s].kind == StationKind::kMultiServer)
        load /= static_cast<double>(network.stations[s].servers);
      if (network.stations[s].kind != StationKind::kDelay) u[s] += load;
    }
  for (std::size_t s = 0; s < u.size(); ++s) {
    if (network.stations[s].kind == StationKind::kDelay) continue;
    if (u[s] >= 1.0)
      throw std::domain_error("MVA: open classes saturate station '" +
                              network.stations[s].name + "'");
  }
  return u;
}

void fill_utilization(const ClosedNetwork& network, MvaResult& result) {
  const std::size_t k = network.num_stations();
  result.station_utilization.assign(k, 0.0);
  for (std::size_t s = 0; s < k; ++s) {
    double u = 0.0;
    for (std::size_t c = 0; c < network.num_classes(); ++c)
      u += result.throughput_rps[c] * network.demands[c][s];
    for (const OpenClass& open : network.open_classes)
      u += open.arrival_rps * open.demands[s];
    if (network.stations[s].kind == StationKind::kMultiServer)
      u /= static_cast<double>(network.stations[s].servers);
    result.station_utilization[s] = u;
  }
}

/// Open-class response times given the closed classes' queue lengths.
void fill_open_responses(const ClosedNetwork& network,
                         const std::vector<double>& u_open,
                         MvaResult& result) {
  result.open_response_time_s.clear();
  for (const OpenClass& open : network.open_classes) {
    double r = 0.0;
    for (std::size_t s = 0; s < network.num_stations(); ++s) {
      const SplitDemand d = split_demand(network.stations[s], open.demands[s]);
      double q_closed = 0.0;
      for (std::size_t c = 0; c < network.num_classes(); ++c)
        q_closed += result.station_queue[c][s];
      r += d.delay + d.queueing * (1.0 + q_closed) / (1.0 - u_open[s]);
    }
    result.open_response_time_s.push_back(r);
  }
}

}  // namespace

MvaResult solve_exact_single_class(const ClosedNetwork& network) {
  network.check();
  if (network.num_classes() != 1)
    throw std::invalid_argument("solve_exact_single_class: needs one class");
  const double pop = network.population[0];
  const auto n_max = static_cast<long>(std::llround(pop));
  if (std::abs(pop - static_cast<double>(n_max)) > 1e-9 || n_max < 1)
    throw std::invalid_argument(
        "solve_exact_single_class: population must be a positive integer");

  const std::size_t k = network.num_stations();
  const std::vector<double> u_open = open_utilization(network);
  std::vector<double> queue(k, 0.0), response(k, 0.0);
  double x = 0.0;

  for (long n = 1; n <= n_max; ++n) {
    double total_r = 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      const SplitDemand d = split_demand(network.stations[s], network.demands[0][s]);
      response[s] = d.queueing * (1.0 + queue[s]) / (1.0 - u_open[s]) + d.delay;
      total_r += response[s];
    }
    x = static_cast<double>(n) / (network.think_time_s[0] + total_r);
    for (std::size_t s = 0; s < k; ++s) queue[s] = x * response[s];
  }

  MvaResult result;
  result.throughput_rps = {x};
  double total_r = 0.0;
  for (double r : response) total_r += r;
  result.response_time_s = {total_r};
  result.station_response_s = {response};
  result.station_queue = {queue};
  result.iterations = static_cast<int>(n_max);
  result.converged = true;
  fill_utilization(network, result);
  fill_open_responses(network, u_open, result);
  return result;
}

MvaResult solve_bard_schweitzer(const ClosedNetwork& network,
                                const MvaOptions& options) {
  network.check();
  const std::size_t nc = network.num_classes();
  const std::size_t k = network.num_stations();
  const std::vector<double> u_open = open_utilization(network);
  const bool has_priorities =
      !network.priority.empty() &&
      *std::max_element(network.priority.begin(), network.priority.end()) !=
          *std::min_element(network.priority.begin(), network.priority.end());
  const auto prio = [&](std::size_t c) {
    return network.priority.empty() ? 0 : network.priority[c];
  };

  // Everything the fixed point reads but never changes, computed once per
  // call into flat [c * k + s] arrays: the Seidmann split of each demand,
  // the arrival-theorem self factor and, without priorities, each
  // station's capacity (with priorities it depends on the iterate).
  std::vector<double> queueing(nc * k), delay(nc * k), self_factor(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    const double n_c = network.population[c];
    self_factor[c] = n_c >= 1.0 ? (n_c - 1.0) / n_c : 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      const SplitDemand d =
          split_demand(network.stations[s], network.demands[c][s]);
      queueing[c * k + s] = d.queueing;
      delay[c * k + s] = d.delay;
    }
  }
  std::vector<double> capacity(k);
  for (std::size_t s = 0; s < k; ++s)
    capacity[s] = std::max(1e-9, 1.0 - u_open[s]);  // u_higher = 0

  // Initial guess: each class's population spread evenly over the stations
  // it actually visits.
  std::vector<double> queue(nc * k, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    std::size_t visited = 0;
    for (std::size_t s = 0; s < k; ++s)
      if (network.demands[c][s] > 0.0) ++visited;
    if (visited == 0) continue;
    for (std::size_t s = 0; s < k; ++s)
      if (network.demands[c][s] > 0.0)
        queue[c * k + s] = network.population[c] / static_cast<double>(visited);
  }

  std::vector<double> response(nc * k, 0.0);
  std::vector<double> total_r(nc, 0.0), prev_total_r(nc, 0.0), x(nc, 0.0);

  // Cooperative cancellation: the fixed point is the solver's hot loop, so
  // a deadline-bound caller (the resilient serving layer) can abort it
  // mid-solve through the ambient token. Polled every 64 iterations — the
  // clock read is amortised to noise while a 50 ms deadline still cancels
  // within microseconds of expiring.
  const util::CancellationToken* cancel = util::current_cancellation();

  MvaResult result;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    if (cancel != nullptr && (iter & 63) == 0 && cancel->cancelled())
      throw util::Cancelled("MVA solve cancelled");
    for (std::size_t c = 0; c < nc; ++c) {
      total_r[c] = 0.0;
      for (std::size_t s = 0; s < k; ++s) {
        // Arrivals seen: own class (arrival-theorem scaled) plus classes of
        // the same or higher priority; strictly-higher classes additionally
        // shrink the station capacity (preemptive shadow server).
        double arrivals_seen = self_factor[c] * queue[c * k + s];
        double u_higher = 0.0;
        for (std::size_t o = 0; o < nc; ++o) {
          if (o == c) continue;
          if (!has_priorities || prio(o) >= prio(c))
            arrivals_seen += queue[o * k + s];
          if (has_priorities && prio(o) > prio(c)) {
            double load = x[o] * network.demands[o][s];
            if (network.stations[s].kind == StationKind::kMultiServer)
              load /= static_cast<double>(network.stations[s].servers);
            u_higher += load;
          }
        }
        const double capacity_s =
            has_priorities
                ? std::max(1e-9, 1.0 - u_open[s] - std::min(u_higher, 0.999))
                : capacity[s];
        response[c * k + s] =
            queueing[c * k + s] * (1.0 + arrivals_seen) / capacity_s +
            delay[c * k + s];
        total_r[c] += response[c * k + s];
      }
      x[c] = network.population[c] / (network.think_time_s[c] + total_r[c]);
    }
    for (std::size_t c = 0; c < nc; ++c)
      for (std::size_t s = 0; s < k; ++s)
        queue[c * k + s] = x[c] * response[c * k + s];

    double delta = 0.0;
    for (std::size_t c = 0; c < nc; ++c)
      delta = std::max(delta, std::abs(total_r[c] - prev_total_r[c]));
    prev_total_r = total_r;
    result.iterations = iter;
    if (delta < options.rt_tolerance_s) {
      result.converged = true;
      break;
    }
  }

  result.throughput_rps = x;
  result.response_time_s = total_r;
  for (std::size_t c = 0; c < nc; ++c) {
    result.station_response_s.emplace_back(response.begin() + c * k,
                                           response.begin() + (c + 1) * k);
    result.station_queue.emplace_back(queue.begin() + c * k,
                                      queue.begin() + (c + 1) * k);
  }
  fill_utilization(network, result);
  fill_open_responses(network, u_open, result);
  return result;
}

}  // namespace epp::lqn
