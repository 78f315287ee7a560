// Deterministic network chaos for the serving stack.
//
// The serving tier must survive misbehaving peers and flaky networks:
// connections that reset mid-exchange, frames that arrive truncated,
// slow-loris peers that dribble bytes, and accept paths that stall. Real
// networks produce those faults rarely and unreproducibly; the chaos
// policy produces them *on demand and deterministically*, the same way
// svc::FaultInjector fails predictor evaluations — every decision is a
// pure function of (seed, stream, draw#), so a chaos run replays the
// exact same fault storm on every platform.
//
// The policy is decision-only: it never touches a socket itself. The
// serving layer consults it at two boundaries and acts on the verdicts:
//
//   * accept time — reset_on_accept() (close the fresh connection with an
//     RST) and accept_delay_s() (stall the session before its first read,
//     as a loaded accept path would);
//   * response writes — next_write_fault() picks per frame between a
//     clean write, a connection reset, or a truncated frame (half the
//     wire bytes, then RST); dribble_pause_s() spaces the chunks of a
//     slow-loris write.
//
// Configured from the `net:` target of the fault-spec grammar (see
// svc/fault.hpp); counters record what was actually injected so harness
// assertions can demand a minimum amount of chaos.
#pragma once

#include <atomic>
#include <cstdint>

namespace epp::net {

/// Chaos rates. All probabilities are per-decision; delays are means of
/// an exponential draw (tails matter for timeout handling).
struct ChaosConfig {
  double accept_reset_p = 0.0;   // reset a connection straight after accept
  double accept_delay_s = 0.0;   // mean stall before a session's first read
  double reset_p = 0.0;          // reset instead of writing a response
  double truncate_p = 0.0;       // write half a frame, then reset
  double dribble_s = 0.0;        // mean pause between slow-loris chunks

  bool any() const noexcept {
    return accept_reset_p > 0.0 || accept_delay_s > 0.0 || reset_p > 0.0 ||
           truncate_p > 0.0 || dribble_s > 0.0;
  }
};

enum class WriteFault : std::uint8_t {
  kNone,      // write the frame normally
  kReset,     // drop the connection instead of answering
  kTruncate,  // write a partial frame, then drop the connection
};

/// Injected-fault counters (what actually happened, not the configured
/// rates). Snapshot via ChaosPolicy::stats().
struct ChaosStats {
  std::uint64_t accept_resets = 0;
  std::uint64_t accept_delays = 0;
  std::uint64_t write_resets = 0;
  std::uint64_t write_truncates = 0;
  std::uint64_t dribbled_writes = 0;
};

class ChaosPolicy {
 public:
  explicit ChaosPolicy(ChaosConfig config,
                       std::uint64_t seed = 0xC4A05EEDULL) noexcept;

  /// Accept-time verdicts; each call advances its own stream.
  bool reset_on_accept() const noexcept;
  /// Seconds to stall a fresh session before its first read (0 = none).
  double accept_delay_s() const noexcept;

  /// Per-response verdict (reset beats truncate when both fire).
  WriteFault next_write_fault() const noexcept;
  /// True when writes should dribble in chunks instead of one send.
  bool dribble_writes() const noexcept { return config_.dribble_s > 0.0; }
  /// Pause before the next slow-loris chunk. Capped at 50 ms per chunk so
  /// a chaotic write stays bounded regardless of the configured mean.
  double dribble_pause_s() const noexcept;
  /// Count one dribbled frame (the serving layer calls this once per
  /// frame it chunks, before the first chunk goes out).
  void count_dribbled_write() const noexcept {
    counters_.dribbled_writes.fetch_add(1, std::memory_order_relaxed);
  }

  const ChaosConfig& config() const noexcept { return config_; }
  ChaosStats stats() const noexcept;

 private:
  /// Uniform [0, 1) as a pure function of (seed, stream, draw#).
  double unit_draw(std::uint64_t stream_tag,
                   std::atomic<std::uint64_t>& counter) const noexcept;

  ChaosConfig config_;
  std::uint64_t seed_;
  mutable std::atomic<std::uint64_t> accept_reset_draws_{0};
  mutable std::atomic<std::uint64_t> accept_delay_draws_{0};
  mutable std::atomic<std::uint64_t> write_draws_{0};
  mutable std::atomic<std::uint64_t> dribble_draws_{0};
  mutable struct {
    std::atomic<std::uint64_t> accept_resets{0};
    std::atomic<std::uint64_t> accept_delays{0};
    std::atomic<std::uint64_t> write_resets{0};
    std::atomic<std::uint64_t> write_truncates{0};
    std::atomic<std::uint64_t> dribbled_writes{0};
  } counters_;
};

}  // namespace epp::net
