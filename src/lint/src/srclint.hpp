// epp_srclint — source-level concurrency, hot-path & determinism
// analyzer.
//
// Runs the EPP-CONC, EPP-HOT and EPP-DET rule families over C++ source
// text, using the models built by src/lint/src/source_model.hpp and the
// annotations in util/annotations.hpp. Reported through the same
// epp_diag engine as every other linter in the tree (stable rule IDs,
// severity lattice, text/JSON renderers, exit-code policy), with the
// inline `// epp-lint: ignore(<RULE>)` suppression syntax applied before
// findings are returned.
//
// Rule catalog (see README.md for the full table):
//
//   EPP-CONC-003  warning  blocking call (join / sleep_for / recv / poll
//                          / accept / connect / system / getline) while
//                          holding a lock
//   EPP-CONC-004  warning  condition-variable wait without a predicate
//                          (lost-wakeup / spurious-wakeup hazard)
//   EPP-CONC-005  warning  field declared EPP_GUARDED_BY(m) accessed on
//                          a line where m is not held
//   EPP-CONC-006  warning  detached thread (.detach(): unjoinable,
//                          races with shutdown)
//   EPP-CONC-007  warning  compare_exchange_weak outside a retry loop
//                          (weak CAS may fail spuriously)
//   EPP-CONC-008  warning  mutex not in the rank order: a std::mutex
//                          family declaration, or a RankedMutex without
//                          EPP_LOCK_RANK
//   EPP-HOT-001   warning  heap allocation (new / malloc / make_unique /
//                          make_shared) inside an EPP_HOT region
//   EPP-HOT-002   warning  std::function construction inside an EPP_HOT
//                          region (typically heap-allocates)
//   EPP-HOT-003   warning  lock acquisition inside an EPP_HOT region
//   EPP-HOT-004   warning  console / file I/O inside an EPP_HOT region
//   EPP-HOT-005   error    unbalanced or label-mismatched EPP_HOT
//                          markers
//   EPP-DET-001   error    nondeterministic entropy (std::random_device
//                          anywhere; time() / clock ::now() values
//                          flowing into a seed)
//   EPP-DET-002   error    std <random> engine/distribution used where
//                          util::Rng's portable samplers are required
//   EPP-DET-003   error    iteration over an unordered container whose
//                          body accumulates floating point, emits
//                          output, or schedules events
//   EPP-DET-004   error    shared floating-point accumulator mutated
//                          inside a thread-pool lambda (no fixed-order
//                          merge)
//   EPP-DET-005   warning  default-seeded util::Rng constructed in
//                          library (non-tool, non-test) code
//   EPP-DET-006   warning  pointer values used as ordering/hash keys
//   EPP-META-001  warning  suppression comment that matches no finding
//   EPP-META-002  error    input file could not be read
//
// The analysis is textual and intra-procedural by design (no compiler
// front end, no call graph). A rule is kept only where no runtime gate
// catches the same defect: lock order and re-locking are left to the
// runtime lock-rank tracker (util/lock_rank.hpp), which aborts on every
// inversion or double lock in sanitizer and Debug builds.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lint/diagnostic.hpp"

namespace epp::lint {

struct SrclintOptions {
  /// Honor `// epp-lint: ignore(...)` comments (and report stale ones
  /// as EPP-META-001). Off shows every finding, suppressed or not.
  bool use_suppressions = true;
  /// Rule-ID prefixes to report (e.g. {"EPP-DET", "EPP-CONC"}); empty
  /// means every family. EPP-META-002 input errors always report, and
  /// suppressions of disabled rules are neither applied nor counted
  /// stale.
  std::vector<std::string> rule_prefixes;
};

/// Every rule ID in the catalog above, in catalog order. Front ends
/// check --rules prefixes against this list, so a typo or an unknown ID
/// is a usage error instead of a spuriously clean run.
std::span<const std::string_view> srclint_rule_ids();

/// Lint the given files and/or directories (directories recurse over
/// .hpp/.h/.hh/.cpp/.cc/.cxx). Findings are appended to `out` sorted by
/// (file, line, rule).
void lint_sources(const std::vector<std::string>& paths, Diagnostics& out,
                  const SrclintOptions& options = {});

}  // namespace epp::lint
