// Shared pieces of the benchmark driver: exact-sample quantiles, the
// metric sheet every workload fills, the in-memory span recorder, and
// process resource readings.
//
// Spans are recorded by the benchmark around its own calls into the EPP
// libraries (outside-in); nothing inside src/ is instrumented.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile of the exact samples (q in [0, 1]);
/// 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// A failed benchmark step: the message names the workload and step.
struct StepError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The metric sheet a run fills. Every metric carries its unit and the
/// number of samples behind it; the driver prints the human-readable
/// table and the one-line JSON result from it.
class Sheet {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    for (Entry& e : entries_)
      if (e.name == name) {
        e = {name, value, unit, samples};
        return;
      }
    entries_.push_back({name, value, unit, samples});
  }
  /// Note a failed correctness check; any failure makes the run incorrect.
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++check_failures_;
      std::cout << "CHECK FAILED: " << what << "\n";
    }
  }
  void note(const std::string& line) { notes_.push_back(line); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Human-readable lines for every metric, then the JSON result as the
  /// last line with exactly the metrics named in `reported`. A reported
  /// metric the workload has no layer for reads 0 (n=0); a missing
  /// end-to-end metric is a benchmark bug.
  void print(const std::string& workload,
             const std::vector<std::pair<std::string, std::string>>& reported,
             bool zero_fill) {
    for (const auto& [name, unit] : reported)
      if (find(name) == nullptr) {
        if (!zero_fill) throw StepError("metric " + name + " was not measured");
        set(name, 0.0, unit, 0);
      }
    std::cout << "workload " << workload << ": " << attempted
              << " attempted, " << failed << " failed, " << checks_
              << " correctness checks, " << check_failures_ << " failed\n";
    for (const std::string& n : notes_) std::cout << "  " << n << "\n";
    for (const Entry& e : entries_)
      std::cout << "  " << std::left << std::setw(34) << e.name << ' '
                << std::setw(14) << format(e.value) << ' ' << std::setw(6)
                << e.unit << " n=" << e.samples << "\n";
    std::cout << "{\"correct\": " << (check_failures_ == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < reported.size(); ++i) {
      const Entry& e = *find(reported[i].first);
      std::cout << (i ? ", " : "") << '"' << e.name
                << "\": {\"value\": " << format(e.value) << ", \"unit\": \""
                << reported[i].second << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  const Entry* find(const std::string& name) const {
    for (const Entry& e : entries_)
      if (e.name == name) return &e;
    return nullptr;
  }
  static std::string format(double v) {
    if (!std::isfinite(v)) v = 0.0;
    std::ostringstream out;
    out << std::setprecision(10) << v;
    return out.str();
  }
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
  std::uint64_t checks_ = 0;
  std::uint64_t check_failures_ = 0;
};

/// One recorded span: name, start, end, the name of the span that caused
/// it (empty for a root) and the request/operation id the spans share.
struct Span {
  const char* name;
  const char* parent;
  std::uint64_t id;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// In-memory span store. Each recording thread appends to its own buffer
/// (no lock on the record path); buffers are merged when the run ends.
class Tracer {
 public:
  bool enabled = false;

  void record(const char* name, const char* parent, std::uint64_t id,
              std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled) return;
    buffer().push_back({name, parent, id, start_ns, end_ns});
  }

  /// Every span recorded so far, from every thread.
  std::vector<Span> spans() const {
    const std::lock_guard lock(mutex_);
    std::vector<Span> all;
    for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
    return all;
  }

  /// Durations (in `scale` units per ns) of every span with this name.
  std::vector<double> durations(const std::string& name, double scale) const {
    std::vector<double> out;
    for (const Span& s : spans())
      if (name == s.name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * scale);
    return out;
  }

  /// Self time per layer (the span-name prefix before the first '.'):
  /// each span's duration minus the union of its children's intervals,
  /// children being the spans with the same id naming it as parent.
  std::map<std::string, double> self_ns_by_layer() const {
    const std::vector<Span> all = spans();
    std::map<std::uint64_t, std::vector<const Span*>> by_id;
    for (const Span& s : all) by_id[s.id].push_back(&s);
    std::map<std::string, double> self;
    for (const auto& [id, group] : by_id)
      for (const Span* s : group) {
        std::vector<std::pair<std::int64_t, std::int64_t>> kids;
        for (const Span* c : group)
          if (c != s && std::string(c->parent) == s->name)
            kids.emplace_back(std::max(c->start_ns, s->start_ns),
                              std::min(c->end_ns, s->end_ns));
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0, reach = s->start_ns;
        for (const auto& [a, b] : kids) {
          const std::int64_t from = std::max(a, reach);
          if (b > from) {
            covered += b - from;
            reach = b;
          }
        }
        const std::string name = s->name;
        self[name.substr(0, name.find('.'))] +=
            static_cast<double>(s->end_ns - s->start_ns - covered);
      }
    return self;
  }

  /// Write every span as one JSON object per line.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw StepError("cannot write span file " + path);
    for (const Span& s : spans())
      out << "{\"name\":\"" << s.name << "\",\"parent\":\"" << s.parent
          << "\",\"id\":" << s.id << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
  }

 private:
  std::vector<Span>& buffer() {
    thread_local std::vector<Span>* mine = nullptr;
    thread_local std::uint64_t owner = 0;
    if (mine == nullptr || owner != serial_) {
      const std::lock_guard lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffers_.back()->reserve(1 << 16);
      mine = buffers_.back().get();
      owner = serial_;
    }
    return *mine;
  }

  static std::uint64_t next_serial() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  // Identifies this tracer to the per-thread buffer cache, so a later
  // tracer never appends to a destroyed tracer's buffer.
  const std::uint64_t serial_ = next_serial();
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Keeps every CPU out of its idle state while alive: one SCHED_IDLE
/// polling thread per CPU, the user-space equivalent of idle=poll. Under
/// a hypervisor a halted virtual CPU is woken through the host, which
/// adds 0.1-10 ms to a cross-thread hand-off at random; SCHED_IDLE
/// threads run only when nothing else wants the CPU and yield to any
/// waking thread at once, so the measured program keeps its CPUs.
class IdlePollers {
 public:
  IdlePollers() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i)
      threads_.emplace_back([this] {
        sched_param param{};
        sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
  }
  ~IdlePollers() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Host CPU accounting of this (virtual) machine from /proc/stat: the
/// ticks the hypervisor stole from its CPUs, and all ticks.
struct StealSample {
  double steal = 0.0;
  double total = 0.0;
};

inline StealSample read_steal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  StealSample sample;
  for (int i = 0; i < 10; ++i) {
    double v = 0.0;
    if (!(stat >> v)) break;
    sample.total += v;
    if (i == 7) sample.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return sample;
}

/// Share of CPU time the host stole between two samples, in percent.
inline double steal_pct(const StealSample& a, const StealSample& b) {
  const double total = b.total - a.total;
  return total > 0.0 ? 100.0 * (b.steal - a.steal) / total : 0.0;
}

/// User + system CPU seconds of this process so far.
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// High-water resident set of this process, in MB.
inline double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
