// epp_loadgen — open-loop load generator for epp_serve.
//
// Drives the prediction daemon at a configurable request rate the way
// the serving literature measures tail latency: *open loop*. Each lane
// walks a request schedule (Poisson or uniform inter-arrivals) and
// sends on time whether or not earlier responses have come back, so a
// slow server accumulates in-flight requests instead of silently
// slowing the offered load — exactly the regime where admission control
// and p99.9 matter. Responses are matched asynchronously by request id
// on a receiver thread per connection.
//
// Robustness: a refused or reset connection is a *measured event*, not
// a crash. Each lane reconnects with jittered exponential backoff
// (counting reconnects and connect failures), requests that die with
// their connection are retried on the fresh one up to --retry-budget,
// and in-flight requests lost to a reset are counted as lost, so the
// harness can drive a chaotic server (epp_serve --fault-spec 'net:...')
// to completion and assert on the damage instead of aborting at the
// first RST.
//
// Drift: with --observe-scale S, every successful prediction is
// followed by a kObserve frame reporting S x the predicted RT as the
// "measured" value — a synthetic, perfectly controlled drift signal
// (constant relative error S-1) that trips the server's detector in a
// bounded number of observations. S=1 reports perfect agreement.
//
// The request mix follows the hot/cold pattern of key-value loadgens: a
// small hot set of (method, server, workload) tuples drawn with
// probability --hot-fraction (these hammer the server's prediction
// cache, like repeated capacity questions from a resource manager), and
// a cold tail of uniformly drawn client loads that mostly miss. Latency
// lands in fixed-width bucket histograms (one per lane, merged at the
// end — no cross-thread sync on the hot path): the client-observed
// round trip, and the server-reported wall time inside the predictor
// itself. Both report p50/p99/p99.9.
//
// Results print as a human summary and are written to --json-out
// (default BENCH_serve.json) so the serving perf trajectory is recorded
// per run.
//
// Usage:
//   epp_loadgen --port P [--host H] [--rps R] [--duration S]
//               [--connections C] [--methods m1,m2] [--servers s1,s2]
//               [--loads lo:hi:step] [--buys p1,p2] [--think-time S]
//               [--hot-set N] [--hot-fraction F] [--arrivals poisson|uniform]
//               [--deadline-ms MS] [--retry-budget N] [--connect-attempts N]
//               [--observe-scale S] [--seed N] [--json-out FILE] [--shutdown]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "svc/resilient.hpp"
#include "util/annotations.hpp"
#include "util/cli.hpp"
#include "util/lock_rank.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace epp;
namespace cli = util::cli;
using Clock = std::chrono::steady_clock;

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double rps = 500.0;
  double duration_s = 5.0;
  std::size_t connections = 4;
  std::vector<svc::Method> methods{svc::Method::kHistorical, svc::Method::kLqn,
                                   svc::Method::kHybrid};
  std::vector<std::string> servers{"AppServS", "AppServF", "AppServVF"};
  std::vector<double> loads;  // cold range, expanded grid
  std::vector<double> buy_pcts{0.0, 25.0};
  double think_time_s = 7.0;
  std::size_t hot_set = 32;
  double hot_fraction = 0.8;
  bool poisson = true;
  double deadline_ms = 0.0;
  /// Resends of one request across reconnects before giving it up.
  int retry_budget = 2;
  /// Connect attempts per (re)connect episode before the lane dies.
  int connect_attempts = 10;
  /// > 0: follow each ok prediction with a kObserve frame reporting
  /// scale x the predicted RT as measured (drift drive). 0 = off.
  double observe_scale = 0.0;
  std::uint64_t seed = 0x10ADC0DEULL;
  std::string json_out = "BENCH_serve.json";
  bool send_shutdown = false;
};

int usage(std::ostream& out) {
  out << "usage: epp_loadgen --port P [--host H] [--rps R] [--duration S]\n"
         "                   [--connections C] [--methods m1,m2]\n"
         "                   [--servers s1,s2] [--loads lo:hi:step]\n"
         "                   [--buys p1,p2] [--think-time S] [--hot-set N]\n"
         "                   [--hot-fraction F] [--arrivals poisson|uniform]\n"
         "                   [--deadline-ms MS] [--retry-budget N]\n"
         "                   [--connect-attempts N] [--observe-scale S]\n"
         "                   [--seed N] [--json-out FILE] [--no-json]\n"
         "                   [--shutdown]\n\n"
         "Open-loop load generator for epp_serve: sends prediction\n"
         "requests at --rps regardless of response progress, mixes a hot\n"
         "set of repeated requests with cold uniform loads, and reports\n"
         "achieved throughput plus p50/p99/p99.9 of both the client round\n"
         "trip and the server-side predictor, as text and as a\n"
         "BENCH_serve.json artifact. Lost connections reconnect with\n"
         "jittered exponential backoff and requests retry up to\n"
         "--retry-budget, so a chaotic server is measured, not fatal.\n"
         "--observe-scale S feeds the server's drift detector with\n"
         "S x predicted response times. --shutdown drains the server\n"
         "when the run completes.\n";
  return 1;
}

LoadgenConfig parse_args(int argc, char** argv) {
  LoadgenConfig config;
  config.loads = cli::parse_range("--loads", "100:1400:100");
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument(std::string(arg) + " wants a value");
      return argv[++i];
    };
    if (arg == "--host") {
      config.host = value();
    } else if (arg == "--port") {
      config.port =
          static_cast<std::uint16_t>(cli::parse_int(arg, value(), 1, 65535));
    } else if (arg == "--rps") {
      config.rps = cli::parse_positive_double(arg, value());
    } else if (arg == "--duration") {
      config.duration_s = cli::parse_positive_double(arg, value());
    } else if (arg == "--connections") {
      config.connections = cli::parse_size(arg, value(), 1);
    } else if (arg == "--methods") {
      config.methods.clear();
      std::stringstream stream{value()};
      std::string name;
      while (std::getline(stream, name, ','))
        if (!name.empty()) config.methods.push_back(svc::method_from_name(name));
      if (config.methods.empty())
        throw std::invalid_argument("--methods wants at least one method");
    } else if (arg == "--servers") {
      config.servers.clear();
      std::stringstream stream{value()};
      std::string name;
      while (std::getline(stream, name, ','))
        if (!name.empty()) config.servers.push_back(name);
      if (config.servers.empty())
        throw std::invalid_argument("--servers wants at least one server");
    } else if (arg == "--loads") {
      config.loads = cli::parse_range(arg, value());
    } else if (arg == "--buys") {
      config.buy_pcts = cli::parse_double_list(arg, value());
    } else if (arg == "--think-time") {
      config.think_time_s = cli::parse_positive_double(arg, value());
    } else if (arg == "--hot-set") {
      config.hot_set = cli::parse_size(arg, value(), 1);
    } else if (arg == "--hot-fraction") {
      config.hot_fraction = cli::parse_double_at_least(arg, value(), 0.0);
      if (config.hot_fraction > 1.0)
        throw std::invalid_argument("--hot-fraction wants a value in [0, 1]");
    } else if (arg == "--arrivals") {
      const std::string kind = value();
      if (kind == "poisson") {
        config.poisson = true;
      } else if (kind == "uniform") {
        config.poisson = false;
      } else {
        throw std::invalid_argument("--arrivals wants poisson or uniform");
      }
    } else if (arg == "--deadline-ms") {
      config.deadline_ms = cli::parse_positive_double(arg, value());
    } else if (arg == "--retry-budget") {
      config.retry_budget =
          static_cast<int>(cli::parse_int(arg, value(), 0, 100));
    } else if (arg == "--connect-attempts") {
      config.connect_attempts =
          static_cast<int>(cli::parse_int(arg, value(), 1, 1000));
    } else if (arg == "--observe-scale") {
      config.observe_scale = cli::parse_positive_double(arg, value());
    } else if (arg == "--seed") {
      config.seed = static_cast<std::uint64_t>(
          cli::parse_int(arg, value(), 0, std::numeric_limits<long long>::max()));
    } else if (arg == "--json-out") {
      config.json_out = value();
    } else if (arg == "--no-json") {
      config.json_out.clear();
    } else if (arg == "--shutdown") {
      config.send_shutdown = true;
    } else {
      throw std::invalid_argument("unknown argument: " + std::string(arg));
    }
  }
  if (config.port == 0)
    throw std::invalid_argument("--port is required (see epp_serve's "
                                "'listening on' line)");
  return config;
}

// --- fixed-width latency-bucket histogram ---------------------------------
// The idiom the key-value serving harnesses use: an array of equal-width
// buckets indexed by latency, merged across threads after the run, with
// percentiles read off the cumulative counts. O(1) record, no allocation,
// deterministic merge.
class LatencyHistogram {
 public:
  LatencyHistogram(double bucket_width_s, std::size_t buckets)
      : width_s_(bucket_width_s), counts_(buckets, 0) {}

  void record(double seconds) {
    ++total_;
    sum_s_ += seconds;
    max_s_ = std::max(max_s_, seconds);
    const double bucket = seconds / width_s_;
    if (bucket >= static_cast<double>(counts_.size())) {
      ++overflow_;
      return;
    }
    ++counts_[static_cast<std::size_t>(bucket)];
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i)
      counts_[i] += other.counts_[i];
    overflow_ += other.overflow_;
    total_ += other.total_;
    sum_s_ += other.sum_s_;
    max_s_ = std::max(max_s_, other.max_s_);
  }

  /// Percentile as the midpoint of the bucket holding the p-quantile
  /// sample; the overflow bucket reports the observed max.
  double percentile_s(double p) const {
    if (total_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) return (static_cast<double>(i) + 0.5) * width_s_;
    }
    return max_s_;
  }

  double mean_s() const {
    return total_ > 0 ? sum_s_ / static_cast<double>(total_) : 0.0;
  }
  double max_s() const { return max_s_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t overflow() const { return overflow_; }

 private:
  double width_s_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
  double sum_s_ = 0.0;
  double max_s_ = 0.0;
};

/// One concrete request template from the mix.
struct RequestTemplate {
  svc::Method method;
  std::string server;
  double browse_clients;
  double buy_clients;
};

RequestTemplate draw_template(const LoadgenConfig& config, util::Rng& rng,
                              const std::vector<RequestTemplate>& hot_set) {
  if (!hot_set.empty() && rng.bernoulli(config.hot_fraction))
    return hot_set[rng.below(hot_set.size())];
  const svc::Method method = config.methods[rng.below(config.methods.size())];
  const std::string& server = config.servers[rng.below(config.servers.size())];
  const double buy_pct = config.buy_pcts[rng.below(config.buy_pcts.size())];
  // Cold loads: continuous-uniform across the configured span, so most
  // draws land on distinct quantized workloads (cache misses).
  const double lo = config.loads.front();
  const double hi = config.loads.back();
  const double clients = std::floor(lo >= hi ? lo : rng.uniform(lo, hi + 1.0));
  const double buy = std::floor(clients * buy_pct / 100.0);
  return RequestTemplate{method, server, clients - buy, buy};
}

// --- per-lane state -------------------------------------------------------

struct LaneStats {
  // Sender-side (lane thread only).
  std::uint64_t sent = 0;
  std::uint64_t send_failures = 0;    // individual failed writes
  std::uint64_t request_retries = 0;  // resends after a reconnect
  std::uint64_t reconnects = 0;       // successful re-establishments
  std::uint64_t connect_failures = 0; // refused/failed connect() calls
  std::uint64_t lost_inflight = 0;    // in-flight requests lost to a reset
  // Receiver-side (receiver thread only).
  std::uint64_t received = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t other_errors = 0;
  std::uint64_t fallback = 0;
  std::uint64_t stale = 0;
  std::uint64_t cached = 0;
  std::uint64_t observes_sent = 0;
  LatencyHistogram client_hist{20e-6, 50'000};     // 20 us grain, 1 s span
  LatencyHistogram predictor_hist{5e-6, 40'000};   // 5 us grain, 200 ms span
};

/// What the receiver needs to score a response (and build an observe
/// frame for it).
struct Pending {
  Clock::time_point sent_at;
  RequestTemplate tmpl;
};

/// One socket incarnation: everything that dies with a connection. The
/// lane replaces the whole object on reconnect, so a receiver thread
/// always reads from the incarnation it was spawned for.
struct LiveConn {
  net::Socket socket;
  // sender + receiver (observe frames) both write
  util::RankedMutex write_mutex{EPP_LOCK_RANK(110), "tool.loadgen.write"};
  util::RankedMutex inflight_mutex{EPP_LOCK_RANK(100), "tool.loadgen.inflight"};
  std::unordered_map<std::uint64_t, Pending> inflight;
};

/// One load-generation lane: a schedule, a current connection and its
/// receiver thread, reconnected as needed.
struct Lane {
  LaneStats stats;
  std::atomic<std::uint64_t> outstanding{0};
  std::unique_ptr<LiveConn> conn;  // written by the lane thread only
  std::thread receiver;
  bool dead = false;  // lane gave up (connect attempts exhausted)
};

void receiver_loop(const LoadgenConfig& config, Lane& lane, LiveConn& conn) {
  std::vector<std::uint8_t> payload;
  std::uint64_t observe_id = 0;
  for (;;) {
    bool got = false;
    try {
      got = net::read_frame(conn.socket, payload);
    } catch (const std::exception&) {
      break;
    }
    if (!got) break;
    const Clock::time_point now = Clock::now();
    net::ResponseMessage response;
    try {
      response = net::decode_response(payload);
    } catch (const net::FrameError&) {
      break;
    }
    std::optional<Pending> pending;
    {
      const std::lock_guard lock(conn.inflight_mutex);
      const auto it = conn.inflight.find(response.id);
      if (it != conn.inflight.end()) {
        pending = std::move(it->second);
        conn.inflight.erase(it);
      }
    }
    if (!pending) continue;  // control/observe ack (ping/stats/observe)
    lane.outstanding.fetch_sub(1, std::memory_order_acq_rel);

    LaneStats& stats = lane.stats;
    ++stats.received;
    stats.client_hist.record(
        std::chrono::duration<double>(now - pending->sent_at).count());
    if (response.ok()) {
      ++stats.ok;
      stats.predictor_hist.record(response.predictor_latency_s);
      if ((response.flags & net::kFlagFallback) != 0) ++stats.fallback;
      if ((response.flags & net::kFlagStale) != 0) ++stats.stale;
      if ((response.flags & net::kFlagCached) != 0) ++stats.cached;
      if (config.observe_scale > 0.0 && response.mean_rt_s > 0.0) {
        // Close the telemetry loop: report scale x the prediction as the
        // measured RT for the same workload. Fire-and-forget — the ack
        // has no inflight entry and is skipped above.
        net::RequestMessage observe;
        observe.kind = net::MessageKind::kObserve;
        observe.id = 0x0B5E000000000000ULL | ++observe_id;
        observe.method = static_cast<std::uint8_t>(pending->tmpl.method);
        observe.browse_clients = pending->tmpl.browse_clients;
        observe.buy_clients = pending->tmpl.buy_clients;
        observe.think_time_s = config.think_time_s;
        observe.observed_rt_s = response.mean_rt_s * config.observe_scale;
        observe.server = pending->tmpl.server;
        try {
          const std::lock_guard lock(conn.write_mutex);
          if (net::write_frame(conn.socket, net::encode_request(observe)))
            ++stats.observes_sent;
        } catch (const std::exception&) {
          // Connection died mid-observe; the sender will notice.
        }
      }
    } else if (response.error_code ==
               static_cast<std::uint8_t>(svc::ErrorCode::kOverloaded)) {
      ++stats.shed;
    } else if (response.error_code ==
               static_cast<std::uint8_t>(svc::ErrorCode::kDeadlineExceeded)) {
      ++stats.deadline;
    } else {
      ++stats.other_errors;
    }
  }
}

/// Tear down the lane's current connection: unblock and join the
/// receiver, then count every still-pending request as lost.
void close_conn(Lane& lane) {
  if (lane.conn == nullptr) return;
  lane.conn->socket.shutdown_both();
  if (lane.receiver.joinable()) lane.receiver.join();
  std::size_t lost = 0;
  {
    const std::lock_guard lock(lane.conn->inflight_mutex);
    lost = lane.conn->inflight.size();
    lane.conn->inflight.clear();
  }
  lane.stats.lost_inflight += lost;
  lane.outstanding.fetch_sub(lost, std::memory_order_acq_rel);
  lane.conn.reset();
}

/// (Re)establish the lane's connection with jittered exponential
/// backoff: attempt k sleeps ~ base * 2^k, jittered uniformly in
/// [0.5, 1.5) so lanes retrying the same dead server do not stampede
/// it in lockstep. Returns false (lane dead) when attempts run out.
bool open_conn(const LoadgenConfig& config, Lane& lane, util::Rng& rng) {
  close_conn(lane);
  constexpr double kBackoffBaseS = 0.010;
  constexpr double kBackoffCapS = 0.640;
  for (int attempt = 0; attempt < config.connect_attempts; ++attempt) {
    if (attempt > 0) {
      const double backoff = std::min(
          kBackoffCapS, kBackoffBaseS * std::pow(2.0, attempt - 1));
      std::this_thread::sleep_for(std::chrono::duration<double>(
          backoff * rng.uniform(0.5, 1.5)));
    }
    try {
      auto conn = std::make_unique<LiveConn>();
      conn->socket = net::Socket::connect(config.host, config.port);
      lane.conn = std::move(conn);
      ++lane.stats.reconnects;
      lane.receiver = std::thread(
          [&config, &lane, live = lane.conn.get()] {
            receiver_loop(config, lane, *live);
          });
      return true;
    } catch (const net::SocketError&) {
      ++lane.stats.connect_failures;
    }
  }
  lane.dead = true;
  return false;
}

void lane_loop(const LoadgenConfig& config, Lane& lane, std::size_t index,
               const std::vector<RequestTemplate>& hot_set) {
  util::Rng rng(config.seed, /*stream=*/1 + index);
  if (lane.conn == nullptr && !open_conn(config, lane, rng)) return;

  const double rate = config.rps / static_cast<double>(config.connections);
  const double mean_gap_s = 1.0 / rate;

  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.duration_s));
  // Desynchronize the lanes' schedules.
  double next_s = rng.uniform(0.0, mean_gap_s);
  std::uint64_t sequence = 0;

  for (;;) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(next_s));
    if (due >= end) break;
    // Open loop: sleep until the schedule says send, then send — never
    // wait for responses, never skip a slot to hide server slowness.
    std::this_thread::sleep_until(due);

    const RequestTemplate tmpl = draw_template(config, rng, hot_set);
    net::RequestMessage request;
    request.kind = net::MessageKind::kPredict;
    request.id = (static_cast<std::uint64_t>(index) << 40) | ++sequence;
    request.method = static_cast<std::uint8_t>(tmpl.method);
    request.browse_clients = tmpl.browse_clients;
    request.buy_clients = tmpl.buy_clients;
    request.think_time_s = config.think_time_s;
    request.deadline_ms = config.deadline_ms;
    request.server = tmpl.server;
    // Pre-framed once: retries resend the identical wire bytes.
    const std::vector<std::uint8_t> wire =
        net::frame_wire(net::encode_request(request));

    // Send with a per-request retry budget: a failed write means the
    // connection is gone — reconnect (backoff inside) and resend the
    // same request on the fresh socket, up to the budget.
    bool lane_alive = true;
    for (int attempt = 0; attempt <= config.retry_budget; ++attempt) {
      if (attempt > 0) {
        ++lane.stats.request_retries;
        if (!open_conn(config, lane, rng)) {
          lane_alive = false;
          break;
        }
      }
      {
        const std::lock_guard lock(lane.conn->inflight_mutex);
        lane.conn->inflight.emplace(request.id,
                                    Pending{Clock::now(), tmpl});
      }
      lane.outstanding.fetch_add(1, std::memory_order_acq_rel);
      bool sent = false;
      try {
        const std::lock_guard lock(lane.conn->write_mutex);
        sent = lane.conn->socket.send_all(wire.data(), wire.size());
      } catch (const std::exception&) {
        sent = false;
      }
      if (sent) {
        ++lane.stats.sent;
        break;
      }
      ++lane.stats.send_failures;
      lane.outstanding.fetch_sub(1, std::memory_order_acq_rel);
      const std::lock_guard lock(lane.conn->inflight_mutex);
      lane.conn->inflight.erase(request.id);
    }
    if (!lane_alive) break;  // connect attempts exhausted; stop this lane

    next_s += config.poisson ? rng.exponential(mean_gap_s) : mean_gap_s;
  }
}

std::string json_quantiles(const LatencyHistogram& hist) {
  std::ostringstream out;
  out << "{\"p50_ms\": " << hist.percentile_s(50.0) * 1e3
      << ", \"p99_ms\": " << hist.percentile_s(99.0) * 1e3
      << ", \"p999_ms\": " << hist.percentile_s(99.9) * 1e3
      << ", \"mean_ms\": " << hist.mean_s() * 1e3
      << ", \"max_ms\": " << hist.max_s() * 1e3
      << ", \"samples\": " << hist.total()
      << ", \"overflow\": " << hist.overflow() << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) try {
  const LoadgenConfig config = parse_args(argc, argv);

  // Hot set: a deterministic sample of grid cells (the repeated capacity
  // questions); cold traffic is drawn fresh per request.
  std::vector<RequestTemplate> hot_set;
  {
    util::Rng rng(config.seed, /*stream=*/0x407);
    for (std::size_t i = 0; i < config.hot_set; ++i) {
      const svc::Method method =
          config.methods[rng.below(config.methods.size())];
      const std::string& server =
          config.servers[rng.below(config.servers.size())];
      const double buy_pct = config.buy_pcts[rng.below(config.buy_pcts.size())];
      const double clients = config.loads[rng.below(config.loads.size())];
      const double buy = std::floor(clients * buy_pct / 100.0);
      hot_set.push_back(RequestTemplate{method, server, clients - buy, buy});
    }
  }

  std::cerr << "offering " << config.rps << " rps ("
            << (config.poisson ? "poisson" : "uniform") << " arrivals) for "
            << config.duration_s << " s on " << config.connections
            << " lane(s), hot fraction " << config.hot_fraction
            << ", retry budget " << config.retry_budget << "\n";

  // Lanes connect inside their own threads (with backoff), so a server
  // that is still starting — or rejecting connects under chaos — delays
  // a lane instead of aborting the whole run.
  std::vector<std::unique_ptr<Lane>> lanes;
  for (std::size_t i = 0; i < config.connections; ++i)
    lanes.push_back(std::make_unique<Lane>());

  const util::Timer wall;
  std::vector<std::thread> lane_threads;
  lane_threads.reserve(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i)
    lane_threads.emplace_back(
        [&, i] { lane_loop(config, *lanes[i], i, hot_set); });
  for (std::thread& thread : lane_threads) thread.join();
  const double send_wall_s = wall.elapsed_seconds();

  // Drain: give in-flight responses a grace period to arrive.
  const Clock::time_point drain_deadline =
      Clock::now() + std::chrono::seconds(5);
  for (auto& lane : lanes)
    while (lane->outstanding.load(std::memory_order_acquire) > 0 &&
           Clock::now() < drain_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));

  if (config.send_shutdown) {
    net::RequestMessage shutdown;
    shutdown.kind = net::MessageKind::kShutdown;
    shutdown.id = 0;
    for (auto& lane : lanes) {
      if (lane->conn == nullptr) continue;
      try {
        const std::lock_guard lock(lane->conn->write_mutex);
        if (net::write_frame(lane->conn->socket,
                             net::encode_request(shutdown)))
          break;  // one accepted shutdown frame drains the server
      } catch (const std::exception&) {
        // This lane's socket is gone; try the next.
      }
    }
  }

  // Close our halves: receivers unblock on EOF.
  for (auto& lane : lanes) {
    if (lane->conn != nullptr) lane->conn->socket.shutdown_both();
    if (lane->receiver.joinable()) lane->receiver.join();
  }

  // --- merge and report ---------------------------------------------------
  LaneStats merged;
  std::uint64_t outstanding = 0;
  std::size_t dead_lanes = 0;
  for (auto& lane : lanes) {
    const LaneStats& stats = lane->stats;
    merged.sent += stats.sent;
    merged.received += stats.received;
    merged.ok += stats.ok;
    merged.shed += stats.shed;
    merged.deadline += stats.deadline;
    merged.other_errors += stats.other_errors;
    merged.fallback += stats.fallback;
    merged.stale += stats.stale;
    merged.cached += stats.cached;
    merged.send_failures += stats.send_failures;
    merged.request_retries += stats.request_retries;
    // The first successful connect also counts as a "reconnect" in the
    // lane's own bookkeeping; report re-establishments only.
    merged.reconnects += stats.reconnects > 0 ? stats.reconnects - 1 : 0;
    merged.connect_failures += stats.connect_failures;
    merged.lost_inflight += stats.lost_inflight;
    merged.observes_sent += stats.observes_sent;
    merged.client_hist.merge(stats.client_hist);
    merged.predictor_hist.merge(stats.predictor_hist);
    outstanding += lane->outstanding.load(std::memory_order_acquire);
    if (lane->dead) ++dead_lanes;
  }
  const double achieved_rps =
      send_wall_s > 0.0 ? static_cast<double>(merged.received) / send_wall_s
                        : 0.0;
  const double offered_rps =
      send_wall_s > 0.0 ? static_cast<double>(merged.sent) / send_wall_s : 0.0;

  std::cout << "sent " << merged.sent << ", received " << merged.received
            << " (ok " << merged.ok << ", shed " << merged.shed
            << ", deadline " << merged.deadline << ", errors "
            << merged.other_errors << ", unanswered " << outstanding << ")\n";
  std::cout << "offered " << offered_rps << " rps, achieved " << achieved_rps
            << " rps over " << send_wall_s << " s\n";
  std::cout << "degraded: " << merged.fallback << " fallback, " << merged.stale
            << " stale, " << merged.cached << " cache hits\n";
  std::cout << "transport: " << merged.reconnects << " reconnects, "
            << merged.connect_failures << " connect failures, "
            << merged.send_failures << " send failures, "
            << merged.request_retries << " request retries, "
            << merged.lost_inflight << " lost in-flight, " << dead_lanes
            << " dead lane(s)";
  if (config.observe_scale > 0.0)
    std::cout << "; " << merged.observes_sent << " observe frames (scale "
              << config.observe_scale << ")";
  std::cout << "\n";
  const auto print_hist = [](const char* label, const LatencyHistogram& hist) {
    std::cout << label << " p50 " << hist.percentile_s(50.0) * 1e3
              << " ms, p99 " << hist.percentile_s(99.0) * 1e3
              << " ms, p99.9 " << hist.percentile_s(99.9) * 1e3
              << " ms, max " << hist.max_s() * 1e3 << " ms ("
              << hist.total() << " samples)\n";
  };
  print_hist("client   ", merged.client_hist);
  print_hist("predictor", merged.predictor_hist);

  if (!config.json_out.empty()) {
    std::ofstream json(config.json_out);
    if (!json) {
      std::cerr << "epp_loadgen: cannot write " << config.json_out << "\n";
      return 1;
    }
    // Layout contract with lint/canon.hpp (the `epp_check replay`
    // canonicalizer): wall-clock measurements live under "timing",
    // which is stripped before runs are byte-compared; "provenance"
    // records the exact (seed, stream) plan, lane count and arrival
    // process so a trajectory is attributable to its experiment.
    json << "{\n"
         << "  \"bench\": \"serve\",\n"
         << "  \"provenance\": {\n"
         << "    \"seed\": " << config.seed << ",\n"
         << "    \"lane_streams\": \"1..connections, scheduler 0x407\",\n"
         << "    \"connections\": " << config.connections << ",\n"
         << "    \"target_rps\": " << config.rps << ",\n"
         << "    \"configured_duration_s\": " << config.duration_s << ",\n"
         << "    \"hot_fraction\": " << config.hot_fraction << ",\n"
         << "    \"arrivals\": \"" << (config.poisson ? "poisson" : "uniform")
         << "\",\n"
         << "    \"retry_budget\": " << config.retry_budget << ",\n"
         << "    \"observe_scale\": " << config.observe_scale << "\n"
         << "  },\n"
         << "  \"timing\": {\n"
         << "    \"offered_rps\": " << offered_rps << ",\n"
         << "    \"achieved_rps\": " << achieved_rps << ",\n"
         << "    \"send_wall_s\": " << send_wall_s << ",\n"
         << "    \"client_latency\": " << json_quantiles(merged.client_hist)
         << ",\n"
         << "    \"predictor_latency\": "
         << json_quantiles(merged.predictor_hist) << "\n"
         << "  },\n"
         << "  \"sent\": " << merged.sent << ",\n"
         << "  \"received\": " << merged.received << ",\n"
         << "  \"ok\": " << merged.ok << ",\n"
         << "  \"shed\": " << merged.shed << ",\n"
         << "  \"deadline_exceeded\": " << merged.deadline << ",\n"
         << "  \"other_errors\": " << merged.other_errors << ",\n"
         << "  \"unanswered\": " << outstanding << ",\n"
         << "  \"fallback\": " << merged.fallback << ",\n"
         << "  \"stale\": " << merged.stale << ",\n"
         << "  \"cached\": " << merged.cached << ",\n"
         << "  \"reconnects\": " << merged.reconnects << ",\n"
         << "  \"connect_failures\": " << merged.connect_failures << ",\n"
         << "  \"send_failures\": " << merged.send_failures << ",\n"
         << "  \"request_retries\": " << merged.request_retries << ",\n"
         << "  \"lost_inflight\": " << merged.lost_inflight << ",\n"
         << "  \"dead_lanes\": " << dead_lanes << ",\n"
         << "  \"observes_sent\": " << merged.observes_sent << "\n"
         << "}\n";
    std::cerr << "wrote " << config.json_out << "\n";
  }

  // A run that answered nothing (server never reachable) fails; a run
  // that survived chaos with some answers succeeds — the counters tell
  // the damage story.
  return merged.received == 0 ? 1 : 0;
} catch (const std::exception& error) {
  std::cerr << "epp_loadgen: " << error.what() << "\n\n";
  return usage(std::cerr);
}
