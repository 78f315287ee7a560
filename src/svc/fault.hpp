// Deterministic fault injection at the prediction boundary.
//
// Resilience policies (retry, fallback, circuit breaking, deadlines) are
// impossible to test reliably against real failures — a flaky simulator
// run or a sleep-based latency spike makes every test timing-sensitive.
// The FaultInjector replaces both with *seeded, counter-based* streams:
// the n-th evaluation of a (method, server) pair fails (or is assessed a
// virtual latency) as a pure function of (seed, method, server, n), so a
// test run reproduces the exact same fault sequence every time, on every
// platform, regardless of wall-clock speed.
//
// Two independent streams per (method, server) pair:
//   * failure stream — should_fail() throws the decision for transient
//     faults; the batch engine converts a hit into an InjectedFault.
//   * latency stream — injected_latency_s() returns *virtual* seconds the
//     serving layer adds to a request's elapsed time before deadline
//     checks. No thread ever sleeps, so deadline tests are deterministic.
//
// Spec grammar (the epp_sweep/epp_serve --fault-spec flag):
//   spec    := clause (';' clause)*
//   clause  := target ':' knob (',' knob)*
//   target  := 'historical' | 'lqn' | 'hybrid' | '*' | 'net'
//   knob    := 'fail=' P | 'latency-ms=' MS          (method targets)
//            | 'reset=' P | 'truncate=' P            (net target)
//            | 'accept-reset=' P | 'accept-delay-ms=' MS
//            | 'dribble-ms=' MS
// e.g. "lqn:fail=0.3,latency-ms=20;net:reset=0.05,dribble-ms=2". The '*'
// target expands to all three methods (never to 'net'); assigning the
// same knob to the same target twice (directly or through '*') is
// rejected — the old grammar silently kept the last assignment, which
// made overlapping specs order-dependent. Method knobs on the net target
// (and vice versa) are a domain-mismatch error, not a silent no-op.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "lint/diagnostic.hpp"
#include "net/chaos.hpp"
#include "svc/prediction_cache.hpp"
#include "util/annotations.hpp"
#include "util/lock_rank.hpp"

namespace epp::svc {

/// Thrown by the batch engine when the injector fails an evaluation.
/// Transient by construction: a retry draws the next sample of the
/// failure stream, which may pass.
struct InjectedFault : std::runtime_error {
  InjectedFault(Method method_, const std::string& server_)
      : std::runtime_error("injected fault: " +
                           std::string(method_name(method_)) + " on '" +
                           server_ + "'"),
        method(method_),
        server(server_) {}
  Method method;
  std::string server;
};

/// Injection rates for one method (on every server).
struct MethodFaults {
  double fail_probability = 0.0;  // transient-failure chance per evaluation
  double latency_s = 0.0;         // virtual latency per evaluation
};

struct FaultConfig {
  MethodFaults historical;
  MethodFaults lqn;
  MethodFaults hybrid;
  net::ChaosConfig net;  // wire-level chaos; consumed by the serving tier

  const MethodFaults& for_method(Method method) const;
  MethodFaults& for_method(Method method);
  /// True when any *method* fault is configured. Deliberately excludes
  /// the net chaos rates: the FaultInjector only drives predictor
  /// evaluations, and resilience policies must not change shape because
  /// the wire is chaotic. Ask `net.any()` for that.
  bool any() const noexcept;
};

/// Rule-coded fault-spec lint (the EPP-FLT-* rules): parse `spec`,
/// appending every finding to `diagnostics` at `where` and skipping the
/// offending clause. This is the single source of truth for the grammar;
/// parse_fault_spec and `epp_check verify` both run it.
///   EPP-FLT-001 (error) malformed clause or knob shape
///   EPP-FLT-002 (error) unknown target or knob name
///   EPP-FLT-003 (error) knob value out of range (non-numeric,
///                       non-finite, negative, probability > 1)
///   EPP-FLT-004 (error) duplicate knob assignment for a target
///                       (directly or through the '*' target)
///   EPP-FLT-005 (error) target/knob domain mismatch (net knob on a
///                       method target, or method knob on 'net')
///   EPP-FLT-006 (warn)  implausibly aggressive chaos — combined
///                       reset+truncate or accept-reset rates so high
///                       the harness cannot complete a run
FaultConfig lint_fault_spec(const std::string& spec,
                            const lint::SourceLocation& where,
                            lint::Diagnostics& diagnostics);

/// Parse the --fault-spec grammar above; throws std::invalid_argument
/// with the first lint_fault_spec finding on malformed input.
FaultConfig parse_fault_spec(const std::string& spec);

class FaultInjector {
 public:
  /// Callers supply the seed (tools use calib::kFaultInjectionSeed so the
  /// stream is provenanced alongside the calibration seeds).
  explicit FaultInjector(FaultConfig config,
                         std::uint64_t seed = 0xFA17ED5EEDULL);

  /// Draw the next failure decision for the pair. Thread-safe; each pair's
  /// stream is its own counter, so concurrency elsewhere cannot perturb a
  /// pair's sequence.
  bool should_fail(Method method, const std::string& server) const;

  /// Draw the next virtual-latency sample for the pair (seconds).
  double injected_latency_s(Method method, const std::string& server) const;

  /// Master switch (e.g. "chaos off" while a test heals a breaker).
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  const FaultConfig& config() const noexcept { return config_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Totals across all pairs.
  std::uint64_t decisions() const noexcept {
    return decisions_.load(std::memory_order_relaxed);
  }
  std::uint64_t injected_failures() const noexcept {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  struct Streams {
    std::atomic<std::uint64_t> fail_draws{0};
    std::atomic<std::uint64_t> latency_draws{0};
  };

  Streams& streams_for(Method method, const std::string& server) const;

  FaultConfig config_;
  std::uint64_t seed_;
  std::atomic<bool> enabled_{true};
  mutable std::atomic<std::uint64_t> decisions_{0};
  mutable std::atomic<std::uint64_t> failures_{0};
  mutable util::RankedMutex mutex_{EPP_LOCK_RANK(80),
                                 "svc.fault.streams"};  // guards the map, not the counters
  mutable std::map<std::pair<int, std::string>, std::unique_ptr<Streams>>
      streams_;
};

}  // namespace epp::svc
