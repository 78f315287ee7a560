// EPP-DET-001..006: the determinism rule family.
//
// The simulator's calibration/validation methodology only works if an
// experiment is exactly reproducible: same bundle + same seed must give
// byte-identical results at any thread count (replications are
// seed-sharded and merged in fixed order for exactly this reason).
// These rules police the ways C++ quietly breaks that contract:
// ambient entropy flowing into seeds, std <random> distributions whose
// output differs across standard libraries, hash-order iteration with
// order-sensitive effects, racy floating-point accumulation in pool
// lambdas, silently default-seeded generators, and pointer keys whose
// order is the allocator's mood. The runtime twin of this family is
// `epp_check replay`, which reruns a pipeline and byte-compares the
// canonicalized artifacts; the rules here name the line to fix when
// that gate trips.

#include <cstddef>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "lint/src/rules.hpp"

namespace epp::lint::srcrules {
namespace {

using srcmodel::FileModel;

/// "src/svc/cache.hpp" -> "cache": pairs a .cpp with its header so a
/// loop in the .cpp can resolve a container declared in the header.
std::string det_stem_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// EPP-DET-005 applies to library code only: tools, benches, examples
/// and test fixtures construct default-seeded generators on purpose.
bool library_path(const std::string& path) {
  static const std::regex nonlib(
      R"((^|/)(tools|bench|examples)/|_test\.(cpp|cc|cxx|hpp|h)$)");
  return !std::regex_search(path, nonlib);
}

/// Resolve a loop's container name against the declarations: same file
/// first, then the stem twin (header/impl pair), then a globally unique
/// name. Ambiguous names resolve to nothing — better silent than wrong.
const srcmodel::ContainerDecl* resolve_container(
    const std::vector<FileModel>& files, const FileModel& site,
    const std::string& name) {
  if (name.empty()) return nullptr;
  for (const srcmodel::ContainerDecl& decl : site.containers)
    if (decl.name == name) return &decl;
  const std::string stem = det_stem_of(site.path);
  for (const FileModel& file : files) {
    if (&file == &site || det_stem_of(file.path) != stem) continue;
    for (const srcmodel::ContainerDecl& decl : file.containers)
      if (decl.name == name) return &decl;
  }
  const srcmodel::ContainerDecl* unique = nullptr;
  int count = 0;
  for (const FileModel& file : files)
    for (const srcmodel::ContainerDecl& decl : file.containers)
      if (decl.name == name) {
        unique = &decl;
        ++count;
      }
  return count == 1 ? unique : nullptr;
}

/// Float accumulator names visible to `site`: its own plus stem twins'.
std::vector<std::string> visible_floats(const std::vector<FileModel>& files,
                                        const FileModel& site) {
  std::vector<std::string> names;
  for (const srcmodel::FloatDecl& decl : site.floats)
    names.push_back(decl.name);
  const std::string stem = det_stem_of(site.path);
  for (const FileModel& file : files) {
    if (&file == &site || det_stem_of(file.path) != stem) continue;
    for (const srcmodel::FloatDecl& decl : file.floats)
      names.push_back(decl.name);
  }
  return names;
}

const std::string& token_line(const FileModel& file, int line) {
  static const std::string empty;
  if (line < 1 || line > static_cast<int>(file.tokens.size())) return empty;
  return file.tokens[static_cast<std::size_t>(line - 1)];
}

// --- EPP-DET-001: entropy flowing into seeds -------------------------------

void check_entropy(const std::vector<FileModel>& files, Diagnostics& out) {
  static const std::regex entropy_in_args(
      R"(std::random_device|\btime\s*\(\s*(?:nullptr|NULL|0|&)|[\w:]*[Cc]lock::now\s*\()");
  for (const FileModel& file : files) {
    std::set<int> reported;
    // std::random_device is nondeterministic wherever it appears — it
    // exists to defeat reproducibility.
    for (const srcmodel::EntropyUse& use : file.entropy) {
      if (use.token != "std::random_device") continue;
      if (!reported.insert(use.line).second) continue;
      out.error("EPP-DET-001", {file.path, use.line},
                "std::random_device read — hardware entropy makes this run "
                "unreproducible by construction",
                "seed from the experiment config's (seed, stream) pair "
                "instead (util::Rng)");
    }
    // time()/clock::now() values are legitimate for measurement; they
    // become defects only when they reach a seed sink, directly or via
    // a tainted variable.
    for (const srcmodel::SeedSink& sink : file.seed_sinks) {
      if (reported.count(sink.line)) continue;
      std::string source;
      if (std::regex_search(sink.args, entropy_in_args)) {
        source = "an entropy expression in the arguments";
      } else {
        for (const srcmodel::EntropyUse& use : file.entropy) {
          if (use.variable.empty()) continue;
          const std::regex var("\\b" + use.variable + "\\b");
          if (std::regex_search(sink.args, var)) {
            source = "'" + use.variable + "' (tainted by " + use.token +
                     " on line " + std::to_string(use.line) + ")";
            break;
          }
        }
      }
      if (source.empty()) continue;
      reported.insert(sink.line);
      out.error("EPP-DET-001", {file.path, sink.line},
                "nondeterministic entropy flows into a seed: " + source,
                "seed from the experiment config's (seed, stream) pair so "
                "the run replays bit-for-bit");
    }
  }
}

// --- EPP-DET-002: std <random> distributions -------------------------------

void check_std_random(const std::vector<FileModel>& files, Diagnostics& out) {
  // The engine values are portable; the *distributions* are not —
  // libstdc++ and libc++ are free to (and do) consume the stream
  // differently. util/rng.hpp carries its own samplers for this reason.
  static const std::regex std_random(
      R"(std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|knuth_b|ranlux\w+|(?:uniform_int|uniform_real|normal|lognormal|exponential|poisson|bernoulli|geometric|binomial|negative_binomial|gamma|weibull|extreme_value|chi_squared|cauchy|fisher_f|student_t|discrete|piecewise_constant|piecewise_linear)_distribution|shuffle)\b)");
  for (const FileModel& file : files) {
    for (int line = 1; line <= file.line_count; ++line) {
      std::smatch m;
      const std::string& tokens = token_line(file, line);
      if (!std::regex_search(tokens, m, std_random)) continue;
      out.error("EPP-DET-002", {file.path, line},
                std::string(m[0]) +
                    " — std <random> engines/distributions differ across "
                    "standard libraries, so results stop being portable",
                "use util::Rng and its samplers (uniform/exponential/"
                "normal/pareto) instead");
    }
  }
}

// --- EPP-DET-003: order-sensitive iteration over unordered containers ------

void check_unordered_iteration(const std::vector<FileModel>& files,
                               Diagnostics& out) {
  static const std::regex output_kw(
      R"(std::cout\b|std::cerr\b|std::clog\b|\bprintf\s*\(|\bfprintf\s*\()");
  static const std::regex schedule_kw(R"(\bschedule\w*\s*\()");
  for (const FileModel& file : files) {
    const std::vector<std::string> floats = visible_floats(files, file);
    for (const srcmodel::ContainerLoop& loop : file.container_loops) {
      const srcmodel::ContainerDecl* decl =
          resolve_container(files, file, loop.container);
      if (decl == nullptr || !decl->unordered) continue;
      bool emits = false;
      bool schedules = false;
      std::string accumulates;
      for (int line = loop.body_begin; line <= loop.body_end; ++line) {
        const std::string& tokens = token_line(file, line);
        if (std::regex_search(tokens, output_kw)) emits = true;
        if (std::regex_search(tokens, schedule_kw)) schedules = true;
        for (const std::string& name : floats) {
          if (!accumulates.empty()) break;
          const std::regex accumulate("\\b" + name + "\\s*[-+]=");
          if (std::regex_search(tokens, accumulate)) accumulates = name;
        }
      }
      std::vector<std::string> effects;
      if (!accumulates.empty())
        effects.push_back("accumulates floating point into '" + accumulates +
                          "'");
      if (emits) effects.push_back("emits output");
      if (schedules) effects.push_back("schedules events");
      if (effects.empty()) continue;
      std::string what = effects[0];
      for (std::size_t i = 1; i < effects.size(); ++i)
        what += " and " + effects[i];
      out.error("EPP-DET-003", {file.path, loop.line},
                "iteration over unordered container '" + loop.container +
                    "' " + what +
                    " — hash order varies across runs and libraries, so "
                    "the result depends on it",
                "iterate a sorted key snapshot, or switch the container "
                "to std::map");
    }
  }
}

// --- EPP-DET-004: racy float accumulation in pool lambdas ------------------

void check_pool_accumulation(const std::vector<FileModel>& files,
                             Diagnostics& out) {
  for (const FileModel& file : files) {
    std::string joined;
    for (const std::string& tokens : file.tokens) {
      joined += tokens;
      if (joined.empty() || joined.back() != '\n') joined += '\n';
    }
    for (const srcmodel::PoolLambda& lambda : file.pool_lambdas) {
      if (!lambda.name.empty()) {
        // A named lambda is in scope only if it is actually handed to
        // the pool somewhere in this TU.
        const std::regex bound(
            R"((?:parallel_for|for_each_index|submit)\s*\([^;]*\b)" +
            lambda.name + "\\b");
        if (!std::regex_search(joined, bound)) continue;
      }
      for (const srcmodel::FloatDecl& decl : file.floats) {
        // Only *outer* accumulators count; a float declared inside the
        // lambda body is per-invocation state.
        if (decl.line >= lambda.body_begin && decl.line <= lambda.body_end)
          continue;
        const std::regex mutate("\\b" + decl.name + R"(\s*[-+*/]=)");
        for (int line = lambda.body_begin; line <= lambda.body_end; ++line) {
          if (!std::regex_search(token_line(file, line), mutate)) continue;
          out.error(
              "EPP-DET-004", {file.path, line},
              "shared floating-point accumulator '" + decl.name +
                  "' mutated inside a thread-pool lambda — even with "
                  "atomics, float addition is not associative, so the "
                  "sum depends on scheduling",
              "give each lane its own slot and merge the slots in index "
              "order after the join (see sim/replicate.cpp)");
          break;  // one finding per (lambda, accumulator)
        }
      }
    }
  }
}

// --- EPP-DET-005: default-seeded Rng in library code -----------------------

void check_default_seed(const std::vector<FileModel>& files,
                        Diagnostics& out) {
  for (const FileModel& file : files) {
    if (!library_path(file.path)) continue;
    for (const srcmodel::RngDecl& decl : file.rngs) {
      if (!decl.default_seeded) continue;
      out.warning("EPP-DET-005", {file.path, decl.line},
                  "util::Rng '" + decl.name +
                      "' is default-seeded in library code — every caller "
                      "silently shares kDefaultSeed, and replications "
                      "collapse onto one stream",
                  "thread the experiment's (seed, stream) pair through the "
                  "constructor or a constructor init list");
    }
  }
}

// --- EPP-DET-006: pointer keys ---------------------------------------------

void check_pointer_keys(const std::vector<FileModel>& files,
                        Diagnostics& out) {
  for (const FileModel& file : files) {
    for (const srcmodel::ContainerDecl& decl : file.containers) {
      if (!decl.pointer_key) continue;
      out.warning("EPP-DET-006", {file.path, decl.line},
                  "container '" + decl.name +
                      "' is keyed by a pointer — iteration order follows "
                      "allocation addresses, which differ every run",
                  "key by a stable id (index, name, sequence number) and "
                  "keep the pointer as the value");
    }
  }
}

}  // namespace

void check_determinism(const std::vector<FileModel>& files,
                       Diagnostics& out) {
  check_entropy(files, out);
  check_std_random(files, out);
  check_unordered_iteration(files, out);
  check_pool_accumulation(files, out);
  check_default_seed(files, out);
  check_pointer_keys(files, out);
}

}  // namespace epp::lint::srcrules
