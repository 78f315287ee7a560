// serve-hot / serve-cold: an open-loop load generator driving a running
// epp_serve daemon over loopback, plus the correctness replay and the
// traced per-layer breakdown.
//
// Load model: one sender thread (this thread) walks a seeded Poisson
// schedule and writes each request on connection i % kConnections; one
// receiver thread per connection reads the responses. Every request is
// timed from its *due* time, so a generator stall is charged to the
// requests it delays, and the generator's own lateness is reported
// (loadgen.lateness_p99_ms). Samples are kept exactly, one per request.
#include "workloads.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>
#include <random>
#include <thread>

#include <sys/prctl.h>

#include "calib/bundle.hpp"
#include "calib/predictor_set.hpp"
#include "calib/seeds.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "svc/resilient.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace epp;

constexpr std::size_t kConnections = 2;
constexpr double kWarmupS = 1.0;
// Requests not answered within this long after their due time count as
// unanswered (failed).
constexpr double kAnswerTimeoutS = 2.0;
// A measurement whose generator ran later than this at p99 is invalid: it
// is discarded and made again, and a run whose every attempt is late fails.
constexpr double kMaxLatenessP99Ms = 25.0;
constexpr int kMeasureAttempts = 2;
// The p50 and the tail are medians over one-second windows of each
// window's value: the host this runs on preempts its virtual CPUs for up
// to ~15 ms in bursts lasting seconds, and a median over windows keeps
// those bursts from deciding the run.
constexpr double kWindowS = 1.0;
// The tails are the highest percentiles that repeat. serve-hot's p99 is
// set by the host's preemptions, not by the ~50 us round trip (window
// p99s ranged 0.09-1.4 ms over six runs, p90s 0.06-0.15 ms): its tail is
// p75. serve-cold's whole-run p99 (10-16 ms on a busy host, the length
// of a preemption) spread 29% over five runs: its tail is p90, which the
// lqn solves and their queueing set.
constexpr double kHotTailQ = 0.75;
constexpr double kColdTailQ = 0.90;
// Offered rates (requests/s), and the p99 limits of the SLO-rate search,
// fixed from the measured latency curve: on a virtual machine whose host
// preempts it for up to ~15 ms, p99 stays near 4 ms (hot) and 8 ms
// (cold) at low rates, so the limits sit above that floor.
constexpr double kHotRate = 4000.0;
// serve-cold's methods (historical, lqn, hybrid) are drawn 1:8:1. The
// historical and hybrid answers take about as long as a hot hit (~35 us,
// the wire), an lqn solve 0.1-2 ms; with equal shares the p50 fell on the
// upper edge of the fast answers' wake-up latency and moved with the
// host's load (inter-quartile spread up to 36% of the median over ten
// runs). With 80% lqn it falls among the solves, which is the work this
// workload is meant to measure. 400 req/s rather than 600 leaves the two
// workers more idle time, so a slower host adds less queueing to solves.
constexpr double kColdMethodWeights[] = {1.0, 8.0, 1.0};
constexpr double kColdRate = 400.0;
constexpr double kHotLimitMs = 10.0;
constexpr double kColdLimitMs = 20.0;

struct Key {
  std::uint8_t method = 0;
  std::string server;
  double browse = 0.0, buy = 0.0, think = 7.0;
};

struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t key = 0;
};

/// Everything observed about one request.
struct Record {
  std::int64_t due_ns = 0, send_ns = 0, recv_ns = 0;
  net::ResponseMessage response;
  bool answered = false;
};

/// One ok response kept for the correctness check.
struct Answer {
  std::uint32_t key = 0;
  std::int64_t recv_ns = 0;
  net::ResponseMessage response;
};

void sleep_until_ns(std::int64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1000000000);
  ts.tv_nsec = static_cast<long>(t % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// The request keys: a small pre-warmed hot set, or a fine grid of
/// distinct loads (1-client steps through every server's knee).
std::vector<Key> make_keys(bool hot, const calib::CalibrationBundle& bundle) {
  std::vector<Key> keys;
  const double m = bundle.gradient_m;
  for (const calib::ServerRecord& server : bundle.servers) {
    const double knee = server.max_throughput_rps / m;
    std::vector<double> loads;
    if (hot) {
      for (const double f : {0.3, 0.6, 0.9, 1.2}) loads.push_back(std::round(f * knee));
    } else {
      for (double c = std::round(0.25 * knee); c <= std::round(2.0 * knee); c += 1.0)
        loads.push_back(c);
    }
    for (std::uint8_t method = 0; method < 3; ++method)
      for (const double buy_fraction : {0.0, 0.25})
        for (const double clients : loads) {
          Key key;
          key.method = method;
          key.server = server.name;
          key.buy = std::round(clients * buy_fraction);
          key.browse = clients - key.buy;
          keys.push_back(key);
        }
  }
  return keys;
}

std::vector<std::uint8_t> request_payload(const Key& key, std::uint64_t id) {
  net::RequestMessage request;
  request.kind = net::MessageKind::kPredict;
  request.id = id;
  request.method = key.method;
  request.browse_clients = key.browse;
  request.buy_clients = key.buy;
  request.think_time_s = key.think;
  request.server = key.server;
  return net::encode_request(request);
}

/// One control round trip on a fresh connection (kStats), parsed into
/// key=value pairs.
std::map<std::string, double> server_stats(std::uint16_t port) {
  net::Socket socket = net::Socket::connect("127.0.0.1", port);
  socket.set_recv_timeout(5.0);
  net::RequestMessage request;
  request.kind = net::MessageKind::kStats;
  if (!net::write_frame(socket, net::encode_request(request)))
    throw StepError("stats: daemon closed the connection");
  std::vector<std::uint8_t> payload;
  if (!net::read_frame(socket, payload)) throw StepError("stats: no reply");
  const net::ResponseMessage response = net::decode_response(payload);
  std::map<std::string, double> out;
  std::istringstream text(response.detail);
  std::string token;
  while (text >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) continue;
    try {
      out[token.substr(0, eq)] = std::stod(token.substr(eq + 1));
    } catch (const std::exception&) {
      // non-numeric fields (health) are not used
    }
  }
  return out;
}

/// Daemon resource readings from /proc.
struct ProcSample {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
  double threads = 0.0;
  double peak_rss_mb = 0.0;
  double rss_mb = 0.0;
};

ProcSample read_proc(int pid) {
  ProcSample sample;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string content((std::istreambuf_iterator<char>(stat)), {});
  const auto close = content.rfind(')');
  if (close == std::string::npos) throw StepError("cannot read " + base + "/stat");
  std::istringstream fields(content.substr(close + 2));
  std::vector<std::string> f((std::istream_iterator<std::string>(fields)), {});
  // fields after the comm: state(3) ... utime(14) stime(15)
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  sample.cpu_s = (std::stod(f.at(11)) + std::stod(f.at(12))) / ticks;
  std::ifstream status(base + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) sample.threads = std::stod(line.substr(8));
    if (line.rfind("VmHWM:", 0) == 0) sample.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;
    if (line.rfind("VmRSS:", 0) == 0) sample.rss_mb = std::stod(line.substr(6)) / 1024.0;
  }
  for (const auto& task : std::filesystem::directory_iterator(base + "/task")) {
    std::ifstream ts(task.path() / "status");
    while (std::getline(ts, line))
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
          line.rfind("nonvoluntary_ctxt_switches:", 0) == 0)
        sample.ctx_switches += std::stod(line.substr(line.find(':') + 1));
  }
  return sample;
}

class LoadGenerator {
 public:
  LoadGenerator(std::uint16_t port, const std::vector<Key>& keys, Tracer& tracer)
      : keys_(keys), tracer_(tracer) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      conns_.push_back(net::Socket::connect("127.0.0.1", port));
      conns_.back().set_recv_timeout(0.1);
    }
  }

  /// Send every arrival on schedule (times relative to `start_ns`) and
  /// collect the answers. Returns one record per arrival.
  std::vector<Record> run(const std::vector<Arrival>& arrivals,
                          std::int64_t start_ns) {
    const std::uint64_t base_id = next_id_;
    next_id_ += arrivals.size();
    std::vector<Record> records(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i)
      records[i].due_ns = start_ns + arrivals[i].due_ns;
    const std::int64_t give_up_ns =
        (arrivals.empty() ? start_ns : records.back().due_ns) +
        static_cast<std::int64_t>(kAnswerTimeoutS * 1e9);

    std::vector<std::size_t> expected(kConnections, 0);
    for (std::size_t i = 0; i < arrivals.size(); ++i) ++expected[i % kConnections];
    std::vector<std::thread> receivers;
    std::atomic<bool> failed{false};
    std::string failure;
    std::mutex failure_mutex;
    for (std::size_t c = 0; c < kConnections; ++c)
      receivers.emplace_back([&, c] {
        try {
          receive(conns_[c], expected[c], base_id, records, give_up_ns);
        } catch (const std::exception& error) {
          const std::lock_guard lock(failure_mutex);
          failure = error.what();
          failed = true;
        }
      });

    std::vector<std::uint8_t> payload;
    for (std::size_t i = 0; i < arrivals.size() && !failed; ++i) {
      Record& record = records[i];
      sleep_until_ns(record.due_ns);
      const std::uint64_t id = base_id + i;
      const std::int64_t t0 = now_ns();
      payload = request_payload(keys_[arrivals[i].key], id);
      const std::int64_t t1 = now_ns();
      record.send_ns = t1;
      const bool sent = net::write_frame(conns_[i % kConnections], payload);
      const std::int64_t t2 = now_ns();
      if (tracer_.enabled) {
        tracer_.record("net.encode", "serve.request", id, t0, t1);
        tracer_.record("net.send", "serve.request", id, t1, t2);
      }
      if (!sent) {
        failed = true;
        const std::lock_guard lock(failure_mutex);
        failure = "daemon closed a connection";
      }
    }
    for (std::thread& t : receivers) t.join();
    if (failed) throw StepError("load: " + failure);
    for (std::size_t i = 0; i < records.size(); ++i)
      if (records[i].answered && records[i].response.ok())
        history_.push_back({arrivals[i].key, records[i].recv_ns, records[i].response});
    return records;
  }

  /// Every ok response so far.
  const std::vector<Answer>& history() const { return history_; }

 private:
  void receive(net::Socket& socket, std::size_t expected, std::uint64_t base_id,
               std::vector<Record>& records, std::int64_t give_up_ns) {
    std::vector<std::uint8_t> payload;
    std::size_t got = 0;
    while (got < expected && now_ns() < give_up_ns) {
      try {
        if (!net::read_frame(socket, payload))
          throw StepError("daemon closed a connection");
      } catch (const net::SocketTimeout&) {
        continue;
      }
      const std::int64_t t0 = now_ns();
      net::ResponseMessage response = net::decode_response(payload);
      const std::int64_t t1 = now_ns();
      if (response.id < base_id || response.id >= base_id + records.size())
        continue;  // a straggler from an earlier phase
      Record& record = records[response.id - base_id];
      if (tracer_.enabled) {
        tracer_.record("net.decode", "serve.request", response.id, t0, t1);
        const auto predictor_ns =
            static_cast<std::int64_t>(response.predictor_latency_s * 1e9);
        // The daemon's predictor time, placed at the end of the round trip
        // it sits inside (its exact position is not observable outside).
        tracer_.record("svc.predictor", "serve.request", response.id,
                       t0 - predictor_ns, t0);
        tracer_.record("serve.request", "", response.id, record.due_ns, t1);
      }
      record.recv_ns = t0;
      record.response = std::move(response);
      record.answered = true;
      ++got;
    }
  }

  const std::vector<Key>& keys_;
  Tracer& tracer_;
  std::vector<net::Socket> conns_;  // never resized after construction
  std::vector<Answer> history_;
  std::uint64_t next_id_ = 1;
};

/// Seeded Poisson arrivals at `rate` over `seconds`, keys drawn by `pick`.
template <typename Pick>
std::vector<Arrival> poisson(std::mt19937_64& rng, double rate, double seconds,
                             Pick pick) {
  std::exponential_distribution<double> gap(rate);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += gap(rng);
    if (t >= seconds) break;
    out.push_back({static_cast<std::int64_t>(t * 1e9), pick()});
  }
  return out;
}

/// Summary of one measured phase.
struct PhaseResult {
  std::vector<double> latency_ms;     // from due time, ok responses
  std::vector<double> lateness_ms;    // send - due
  std::uint64_t attempted = 0, failed = 0, shed = 0, ok = 0, cached = 0,
                fallback = 0;
  double elapsed_s = 0.0;
  std::size_t backlog_at_end = 0;
  // Per window of the phase (by due time): p50 and tail of its requests.
  std::vector<double> window_p50, window_tail;
};

PhaseResult summarize(const std::vector<Record>& records, std::int64_t start_ns,
                      double seconds, double window_s = 0.0, double tail_q = 0.99) {
  PhaseResult r;
  std::map<std::int64_t, std::vector<double>> windows;
  const std::int64_t end_ns = start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last = start_ns;
  for (const Record& rec : records) {
    ++r.attempted;
    r.lateness_ms.push_back(static_cast<double>(rec.send_ns - rec.due_ns) / 1e6);
    if (rec.answered && rec.recv_ns > end_ns && rec.due_ns <= end_ns)
      ++r.backlog_at_end;
    if (!rec.answered || !rec.response.ok()) {
      ++r.failed;
      if (rec.answered &&
          rec.response.error_code == static_cast<std::uint8_t>(svc::ErrorCode::kOverloaded))
        ++r.shed;
      continue;
    }
    ++r.ok;
    if (rec.response.flags & net::kFlagCached) ++r.cached;
    if (rec.response.flags & net::kFlagFallback) ++r.fallback;
    r.latency_ms.push_back(static_cast<double>(rec.recv_ns - rec.due_ns) / 1e6);
    if (window_s > 0.0)
      windows[static_cast<std::int64_t>(static_cast<double>(rec.due_ns - start_ns) / 1e9 /
                                        window_s)]
          .push_back(r.latency_ms.back());
    last = std::max(last, rec.recv_ns);
  }
  r.elapsed_s = static_cast<double>(last - start_ns) / 1e9;
  for (const auto& [index, latency] : windows) {
    r.window_p50.push_back(quantile(latency, 0.5));
    r.window_tail.push_back(quantile(latency, tail_q));
  }
  return r;
}

/// Correctness: every ok response's mean_rt_s is bit-equal to the same
/// quantized request, asked of the method that served it, predicted
/// in-process from the bundle the daemon saved.
///
/// The historical and lqn methods are pure functions of the request. The
/// hybrid method is not: it fits each (server, whole-percent mix bucket)
/// lazily, at the exact mix of whichever request reaches the bucket first,
/// and with two workers that can be any request in flight at the time. So
/// hybrid answers are checked per bucket: all of them must match a fresh
/// in-process predictor whose bucket was fitted at one of the bucket's
/// first kCandidates answered requests.
void check_responses(const std::vector<Answer>& history,
                     const std::vector<Key>& keys,
                     const calib::CalibrationBundle& bundle,
                     util::ThreadPool& pool, Sheet& sheet) {
  constexpr std::size_t kCandidates = 8;
  const calib::PredictorSet pure = calib::make_predictors(bundle);
  const auto request_for = [&](const Answer& a) {
    const Key& key = keys[a.key];
    return svc::PredictionRequest{static_cast<svc::Method>(a.response.served_by),
                                  key.server, {key.browse, key.buy, key.think}};
  };
  const auto matches = [&](const svc::BatchPredictor& engine, const Answer& a) {
    try {
      const double expected = engine.predict(request_for(a)).mean_rt_s;
      return std::memcmp(&expected, &a.response.mean_rt_s, sizeof(double)) == 0;
    } catch (const std::exception&) {
      return false;
    }
  };

  std::size_t mismatches = 0;
  std::string first;
  std::map<std::string, std::vector<const Answer*>> hybrid;  // by bucket
  std::vector<const Answer*> others;
  for (const Answer& a : history) {
    const svc::PredictionRequest request = request_for(a);
    if (request.method == svc::Method::kHybrid) {
      const double buy = pure.batch->quantized(request.workload).buy_fraction();
      hybrid[request.server + "@" + std::to_string(std::lround(buy * 100.0))]
          .push_back(&a);
    } else {
      others.push_back(&a);
    }
  }
  // The pure methods in parallel: order does not matter for them.
  std::vector<char> ok(others.size(), 0);
  pool.parallel_for(others.size(), [&](std::size_t i) {
    ok[i] = matches(*pure.batch, *others[i]) ? 1 : 0;
  });
  for (std::size_t i = 0; i < others.size(); ++i)
    if (!ok[i] && mismatches++ == 0) {
      const svc::PredictionRequest request = request_for(*others[i]);
      first = std::string(svc::method_name(request.method)) + " " + request.server +
              " clients=" + std::to_string(request.workload.total_clients());
    }
  for (auto& [bucket, answers] : hybrid) {
    std::sort(answers.begin(), answers.end(),
              [](const Answer* x, const Answer* y) { return x->recv_ns < y->recv_ns; });
    bool any = false;
    for (std::size_t c = 0; c < std::min(kCandidates, answers.size()) && !any; ++c) {
      const calib::PredictorSet candidate = calib::make_predictors(bundle);
      (void)candidate.batch->predict(request_for(*answers[c]));  // fits the bucket
      any = std::all_of(answers.begin(), answers.end(), [&](const Answer* a) {
        return matches(*candidate.batch, *a);
      });
    }
    if (!any) {
      mismatches += answers.size();
      if (first.empty()) first = "hybrid bucket " + bucket;
    }
  }
  sheet.check(mismatches == 0, "serve: " + std::to_string(mismatches) + " of " +
                                   std::to_string(history.size()) +
                                   " ok responses differ from the in-process "
                                   "prediction (first: " + first + ")");
  sheet.note("checked " + std::to_string(history.size()) +
             " ok responses (warm-up included) bit-equal to in-process "
             "predictions; hybrid per mix bucket (" +
             std::to_string(hybrid.size()) + " buckets)");
}

}  // namespace

int run_serve(const RunOptions& options, Sheet& sheet) {
  // Timer slack of 1 ns: the default 50 us would make every due-time
  // sleep overshoot by a large share of the hot round trip.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const bool hot = options.workload == "serve-hot";
  const double rate = hot ? kHotRate : kColdRate;
  const double limit_ms = hot ? kHotLimitMs : kColdLimitMs;
  sheet.note(std::string("open loop, Poisson ") + std::to_string(static_cast<int>(rate)) +
             " req/s over " + std::to_string(kConnections) +
             " connections, 1 sender + " + std::to_string(kConnections) +
             " receiver threads; daemon --workers 2");

  const calib::CalibrationBundle bundle = calib::load_bundle(options.bundle_path);
  {
    const std::int64_t t0 = now_ns();
    const calib::PredictorSet timed = calib::make_predictors(bundle);
    sheet.set("calib.make_predictors_ms", static_cast<double>(now_ns() - t0) / 1e6, "ms");
  }
  sheet.set("calib.calibrate_s", options.calibrate_s, "s", options.setup_samples);

  const std::vector<Key> keys = make_keys(hot, bundle);
  std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ULL + (hot ? 1 : 2));
  // Cold keys: the method is drawn with kColdMethodWeights, then the key
  // without replacement from that method's seeded permutation, so (apart
  // from the daemon's quantization) every request is a fresh solve.
  std::vector<std::vector<std::uint32_t>> order(3);
  for (std::uint32_t i = 0; i < keys.size(); ++i) order[keys[i].method].push_back(i);
  for (std::vector<std::uint32_t>& o : order) std::shuffle(o.begin(), o.end(), rng);
  std::vector<std::size_t> cursor(3, 0);
  std::discrete_distribution<int> cold_method(std::begin(kColdMethodWeights),
                                              std::end(kColdMethodWeights));
  std::uniform_int_distribution<std::uint32_t> any_key(
      0, static_cast<std::uint32_t>(keys.size() - 1));
  const auto pick = [&]() -> std::uint32_t {
    if (hot) return any_key(rng);
    const int method = cold_method(rng);
    std::size_t& next = cursor[method];
    if (next == order[method].size()) next = 0;  // wraps only in the SLO ladder
    return order[method][next++];
  };

  util::ThreadPool check_pool(std::max(1u, std::thread::hardware_concurrency()));
  Tracer tracer;
  LoadGenerator load(options.port, keys, tracer);
  const IdlePollers pollers;

  // Warm-up, excluded: every hot key once, then one second at the rate.
  if (hot) {
    std::vector<Arrival> prewarm;
    for (std::uint32_t k = 0; k < keys.size(); ++k)
      prewarm.push_back({static_cast<std::int64_t>(k) * 1000000, k});
    load.run(prewarm, now_ns());
  }
  load.run(poisson(rng, rate, kWarmupS, pick), now_ns() + 1000000);

  double stolen = 0.0;  // host steal during the last measurement, percent
  const auto measure = [&](double seconds, bool traced, PhaseResult& result,
                           std::vector<Record>& records,
                           std::vector<Arrival>& arrivals) {
    for (int attempt = 1;; ++attempt) {
      arrivals = poisson(rng, rate, seconds, pick);
      tracer.enabled = traced;
      const StealSample steal_before = read_steal();
      const std::int64_t start = now_ns() + 1000000;
      records = load.run(arrivals, start);
      tracer.enabled = false;
      stolen = steal_pct(steal_before, read_steal());
      result = summarize(records, start, seconds, kWindowS, hot ? kHotTailQ : kColdTailQ);
      const double lateness_p99 = quantile(result.lateness_ms, 0.99);
      const bool late = lateness_p99 > kMaxLatenessP99Ms;
      if (!late) return;
      sheet.note("invalid measurement: generator lateness p99 " +
                 std::to_string(lateness_p99) + " ms");
      if (attempt == kMeasureAttempts)
        throw StepError("load generator lateness p99 above " +
                        std::to_string(kMaxLatenessP99Ms) + " ms in " +
                        std::to_string(kMeasureAttempts) + " attempts");
    }
  };

  const auto stats_before = server_stats(options.port);
  const ProcSample proc_before = read_proc(options.pid);
  PhaseResult main;
  std::vector<Record> records;
  std::vector<Arrival> arrivals;
  const double main_seconds = options.trace ? options.seconds / 2 : options.seconds;
  measure(main_seconds, false, main, records, arrivals);
  const double main_stolen = stolen;
  const ProcSample proc_after = read_proc(options.pid);
  const auto stats_after = server_stats(options.port);

  const double lateness_p99 = quantile(main.lateness_ms, 0.99);
  sheet.attempted = main.attempted;
  sheet.failed = main.failed;
  const double served = static_cast<double>(std::max<std::uint64_t>(main.ok, 1));

  if (!options.trace) {
    check_responses(load.history(), keys, bundle, check_pool, sheet);
    sheet.note(std::string("latency timed from each request's due time; p50 and tail (") +
               (hot ? "p75" : "p90") + ") are medians over " +
               std::to_string(main.window_p50.size()) + " windows");
    std::ostringstream q;
    q << "whole-run latency ms p50/p90/p95/p99/p99.9: ";
    for (const double p : {0.5, 0.9, 0.95, 0.99, 0.999}) q << quantile(main.latency_ms, p) << ' ';
    q << "; lateness p99 " << lateness_p99 << " ms; host steal " << main_stolen << "%";
    sheet.note(q.str());
    {
      std::map<int, std::vector<double>> by_method;
      for (const Record& rec : records)
        if (rec.answered && rec.response.ok())
          by_method[rec.response.served_by].push_back(
              static_cast<double>(rec.recv_ns - rec.due_ns) / 1e6);
      std::ostringstream m;
      m << "latency ms p10/p50/p90 by method:";
      for (const auto& [method, lat] : by_method)
        m << ' ' << svc::method_name(static_cast<svc::Method>(method)) << " (n="
          << lat.size() << "): " << quantile(lat, 0.1) << ' '
          << quantile(lat, 0.5) << ' ' << quantile(lat, 0.9) << ';';
      sheet.note(m.str());
    }
    sheet.set("latency_p50_ms", median(main.window_p50), "ms", main.latency_ms.size());
    sheet.set("latency_tail_ms", median(main.window_tail), "ms", main.latency_ms.size());
    sheet.set("throughput_per_s", static_cast<double>(main.ok) / main.elapsed_s, "1/s", main.ok);
    sheet.set("setup_s", options.setup_s, "s", options.setup_samples);
    // The daemon's peak is the larger of its start-up peak (cold
    // calibration) and its resident size after the load, which grows with
    // the cache. Both depend on how many malloc arenas the calibration
    // threads happened to create (up to 3 MB apart between starts on a
    // 4-vCPU VM), so that part is the median over the set-up starts, and
    // this daemon adds only what the load grew it by.
    sheet.set("peak_rss_mb",
              std::max(options.startup_hwm_mb, options.listen_rss_mb + proc_after.rss_mb -
                                                   options.own_listen_rss_mb),
              "MB", options.setup_samples);
    return 0;
  }

  // ---- traced run: per-layer metrics --------------------------------
  PhaseResult traced;
  std::vector<Record> traced_records;
  std::vector<Arrival> traced_arrivals;
  measure(main_seconds, true, traced, traced_records, traced_arrivals);
  sheet.attempted += traced.attempted;
  sheet.failed += traced.failed;

  std::vector<double> encode_us = tracer.durations("net.encode", 1e-3);
  std::vector<double> send_us = tracer.durations("net.send", 1e-3);
  std::vector<double> decode_us = tracer.durations("net.decode", 1e-3);
  sheet.set("net.encode_us", quantile(encode_us, 0.5), "us", encode_us.size());
  sheet.set("net.send_us", quantile(send_us, 0.5), "us", send_us.size());
  sheet.set("net.decode_us", quantile(decode_us, 0.5), "us", decode_us.size());
  std::vector<double> outside_us, predictor_us;
  for (const Record& rec : traced_records) {
    if (!rec.answered || !rec.response.ok()) continue;
    const double rtt_us = static_cast<double>(rec.recv_ns - rec.send_ns) / 1e3;
    predictor_us.push_back(rec.response.predictor_latency_s * 1e6);
    outside_us.push_back(rtt_us - rec.response.predictor_latency_s * 1e6);
  }
  sheet.set("serve.outside_predictor_us.p50", quantile(outside_us, 0.5), "us", outside_us.size());
  sheet.set("serve.outside_predictor_us.p99", quantile(outside_us, 0.99), "us", outside_us.size());
  sheet.set("serve.predictor_us.p50", quantile(predictor_us, 0.5), "us", predictor_us.size());
  sheet.set("serve.predictor_us.p99", quantile(predictor_us, 0.99), "us", predictor_us.size());
  sheet.set("serve.cpu_us_per_req", (proc_after.cpu_s - proc_before.cpu_s) * 1e6 / served, "us", main.ok);
  sheet.set("serve.ctx_switches_per_req",
            (proc_after.ctx_switches - proc_before.ctx_switches) / served, "count", main.ok);
  sheet.set("serve.threads", proc_after.threads, "count");
  sheet.set("serve.queue_peak", stats_after.count("queue_peak") ? stats_after.at("queue_peak") : 0.0, "count");
  const auto delta = [&](const char* k) {
    return (stats_after.count(k) ? stats_after.at(k) : 0.0) -
           (stats_before.count(k) ? stats_before.at(k) : 0.0);
  };
  sheet.set("svc.stale_evictions", delta("stale_evictions"), "count");
  const double attempted = static_cast<double>(std::max<std::uint64_t>(main.attempted, 1));
  sheet.set("serve.shed_ratio", static_cast<double>(main.shed) / attempted, "ratio", main.attempted);
  sheet.set("svc.cache_hit_ratio", static_cast<double>(main.cached) / served, "ratio", main.ok);
  sheet.set("svc.fallback_ratio", static_cast<double>(main.fallback) / served, "ratio", main.ok);
  sheet.set("failed_ratio", static_cast<double>(main.failed) / attempted, "ratio", main.attempted);
  sheet.set("loadgen.lateness_p99_ms", lateness_p99, "ms", main.lateness_ms.size());
  sheet.set("host.steal_pct", main_stolen, "%");

  // Self time per layer from the client spans: net = encode + send +
  // decode, svc = the predictor time the daemon reports, serve = the rest
  // of the round trip (read, decode, admission queue, wake-up, write).
  const auto self = tracer.self_ns_by_layer();
  const double per_req = 1e-3 / static_cast<double>(std::max<std::size_t>(outside_us.size(), 1));
  sheet.set("self.net_us", (self.count("net") ? self.at("net") : 0.0) * per_req, "us", outside_us.size());
  sheet.set("self.serve_us", (self.count("serve") ? self.at("serve") : 0.0) * per_req, "us", outside_us.size());

  // Tracing overhead: traced minus untraced end-to-end numbers.
  sheet.set("trace.overhead_p50_ms", median(traced.window_p50) - median(main.window_p50), "ms");
  sheet.set("trace.overhead_tail_ms", median(traced.window_tail) - median(main.window_tail), "ms");

  std::vector<svc::PredictionRequest> stream;
  for (std::size_t i = 0; i < traced_arrivals.size() && stream.size() < 3000; ++i) {
    const Key& key = keys[traced_arrivals[i].key];
    stream.push_back({static_cast<svc::Method>(key.method), key.server,
                      {key.browse, key.buy, key.think}});
  }
  replay_layers(stream, bundle, sheet);

  // SLO rate: the highest rate on a fixed ladder (5% steps) meeting the
  // p99 limit with <= 0.1% failed and no backlog growth, by bisection
  // over the ladder with two-second probes.
  constexpr double kProbeS = 2.0;
  std::vector<double> ladder;
  for (double r = rate / 4; r <= rate * 4; r *= 1.05) ladder.push_back(r);
  const auto meets = [&](double r) {
    PhaseResult probe;
    std::vector<Record> recs;
    std::vector<Arrival> arr;
    arr = poisson(rng, r, kProbeS, pick);
    const std::int64_t start = now_ns() + 1000000;
    recs = load.run(arr, start);
    probe = summarize(recs, start, kProbeS);
    std::vector<double> all = probe.latency_ms;
    for (std::uint64_t i = 0; i < probe.failed; ++i) all.push_back(1e9);
    const double p99 = quantile(all, 0.99);
    const bool backlog_ok = static_cast<double>(probe.backlog_at_end) <= r * limit_ms / 1e3 + 1.0;
    return p99 <= limit_ms && probe.failed * 1000 <= probe.attempted && backlog_ok;
  };
  std::size_t lo = 0, hi = ladder.size();  // invariant: ladder[lo] passes, hi fails
  if (!meets(ladder[0])) {
    sheet.set("serve.slo_rate_per_s", 0.0, "1/s");
  } else {
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      if (meets(ladder[mid])) lo = mid; else hi = mid;
    }
    sheet.set("serve.slo_rate_per_s", ladder[lo], "1/s");
  }
  sheet.note("serve.slo_rate_per_s limit: p99 <= " + std::to_string(limit_ms) + " ms");

  check_responses(load.history(), keys, bundle, check_pool, sheet);
  std::filesystem::create_directories(options.out_dir);
  tracer.write(options.out_dir + "/" + options.workload + "-spans.jsonl");
  return 0;
}

}  // namespace perfbench
