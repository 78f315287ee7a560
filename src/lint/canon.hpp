// Artifact canonicalization for the determinism replay gate.
//
// `epp_check replay` runs a pipeline command twice (or at two thread
// counts) and byte-compares what it wrote. Most artifacts in this tree
// (.epp bundles, sweep CSV tables) are already bit-deterministic and
// compare verbatim — but the BENCH_*.json emitters measure wall time,
// which legitimately differs between runs. canonicalize_artifact()
// strips exactly those measurement fields so the *semantic* payload
// (counters, provenance, configuration) still has to match byte for
// byte.
//
// The contract with the emitters: wall-clock measurements live either
// under a top-level "timing" object or in keys matching the legacy
// wall-time patterns (ns_per_iter / *_per_second / *_ms / *_us /
// real_time / cpu_time). Everything else is covered by the gate. The
// canonical form is for comparison only — it is the input with lines
// dropped, and is not guaranteed to stay valid JSON.
#pragma once

#include <string>

namespace epp::lint {

/// True when `name`/`text` look like a JSON artifact the wall-time
/// scrub applies to; non-JSON artifacts pass through verbatim.
bool is_json_artifact(const std::string& name, const std::string& text);

/// Return `text` with wall-time measurement content removed (JSON
/// artifacts) or unchanged (everything else). Deterministic and
/// idempotent: canonicalize(canonicalize(x)) == canonicalize(x).
std::string canonicalize_artifact(const std::string& name,
                                  const std::string& text);

}  // namespace epp::lint
