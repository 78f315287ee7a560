// The per-translation-unit model behind epp_srclint.
//
// scan_file() reduces one C++ source file to the facts the EPP-CONC,
// EPP-HOT and EPP-DET rules consume. It is a deliberately lightweight textual
// scanner — no libclang, no preprocessor — built on three passes:
//
//   1. *stripping*: a token view of the text with comments and literal
//      contents blanked and line structure preserved, so quoted or
//      commented-out code never matches;
//   2. *declaration harvest*: RankedMutex / std mutex declarations with
//      their EPP_LOCK_RANK ranks, and EPP_GUARDED_BY field bindings;
//   3. *scope walk*: a brace-depth walk recording guard scopes
//      (lock_guard / unique_lock / scoped_lock / util::MutexLock and
//      statement-form bare .lock()/.unlock()), which mutexes are held on
//      every line, loop blocks, and the call sites the rules care about
//      (blocking calls, cv waits with their argument counts, detach,
//      CAS, hot markers).
//
// A fourth, determinism-oriented value-flow pass feeds the EPP-DET
// rules: util::Rng declarations (and whether a constructor init list
// seeds them), unordered-container declarations with their loop bodies,
// entropy sources (std::random_device, time(), clock ::now() reads)
// with the variables they taint, seed sinks the taint can flow into,
// and by-reference lambdas handed to the thread pool together with the
// floating-point accumulators declared outside them.
//
// The model is intra-procedural and name-based: it sees locks a
// function takes directly, not locks taken inside callees. Lock order
// and re-locking are not judged here at all: the runtime lock-rank
// tracker (util/lock_rank.hpp) checks every acquisition in sanitizer
// and Debug builds, through callees included.
#pragma once

#include <string>
#include <vector>

namespace epp::lint::srcmodel {

struct MutexDecl {
  std::string file;
  int line = 0;
  std::string name;  // declared identifier, e.g. "mutex_"
  int rank = -1;     // EPP_LOCK_RANK value; -1 = none declared
  bool ranked_type = false;  // util::RankedMutex
  bool std_type = false;     // std::mutex family
};

/// A field bound to a mutex with EPP_GUARDED_BY.
struct GuardedField {
  std::string file;
  int line = 0;
  std::string name;
  std::string mutex_name;  // normalized EPP_GUARDED_BY argument
};

/// One lock acquisition (guard construction or statement-form .lock()).
struct Acquisition {
  int line = 0;
  std::string mutex_name;  // normalized (last member component)
};

/// A call matching the blocking-call list while at least one lock is
/// held (lock-free blocking calls are not recorded).
struct BlockingCall {
  int line = 0;
  std::string token;  // e.g. "join", "sleep_for"
};

struct WaitCall {
  int line = 0;
  std::string token;  // "wait" / "wait_for" / "wait_until"
  int args = 0;       // top-level argument count
};

struct CasCall {
  int line = 0;
  bool in_loop = false;  // inside a loop block or a loop head nearby
};

struct DetachCall {
  int line = 0;
};

struct HotMarker {
  int line = 0;
  bool begin = false;
  std::string label;
};

// --- determinism value-flow facts (EPP-DET) --------------------------------

/// A util::Rng declaration. Default-seeded means no constructor
/// arguments appear anywhere in the TU — neither at the declaration nor
/// in a constructor init list (`: rng_(seed, stream)`), the pattern the
/// SoA client pools use.
struct RngDecl {
  int line = 0;
  std::string name;
  bool default_seeded = false;
};

/// An associative container declaration whose key choice matters for
/// determinism: unordered containers iterate in hash order, and pointer
/// keys order by allocation address in ordered containers too.
struct ContainerDecl {
  int line = 0;
  std::string name;
  bool unordered = false;
  bool pointer_key = false;
};

/// A range-for (or .begin() iterator loop) over a named container, with
/// the body extent so rules can judge what the loop does.
struct ContainerLoop {
  int line = 0;        // loop head
  int body_begin = 0;  // line of the opening brace
  int body_end = 0;    // line of the closing brace
  std::string container;  // normalized (last member component)
};

/// A read of a nondeterministic entropy source. When the value is
/// stored (`seed = time(nullptr)`), `variable` carries the tainted name
/// so seed sinks elsewhere in the TU can be matched against it.
struct EntropyUse {
  int line = 0;
  std::string token;     // "std::random_device", "time", "system_clock::now"...
  std::string variable;  // tainted variable; empty when used inline
};

/// A seed sink: a util::Rng construction (declaration or constructor
/// init list), a `.seed(...)` call, or `srand(...)`, with the raw
/// argument text for taint matching.
struct SeedSink {
  int line = 0;
  std::string args;
};

/// A floating-point variable declaration (double/float, including
/// std::atomic<double>) — candidate shared accumulator for EPP-DET-004.
struct FloatDecl {
  int line = 0;
  std::string name;
};

/// A by-reference-capturing lambda handed to the thread pool, either
/// inline at the call (`pool->parallel_for(n, [&](std::size_t i) {`) or
/// named (`auto body = [&](...) {` later passed to
/// submit/parallel_for/for_each_index). Body extent is recorded so
/// rules can look for mutations of outer state inside it.
struct PoolLambda {
  int line = 0;        // where the lambda is introduced
  int body_begin = 0;  // line of the opening brace
  int body_end = 0;    // line of the closing brace
  std::string name;    // named lambda variable; empty when inline
};

struct FileModel {
  std::string path;
  int line_count = 0;
  std::vector<MutexDecl> decls;
  std::vector<GuardedField> guarded;
  std::vector<Acquisition> acquisitions;
  std::vector<BlockingCall> blocking;
  std::vector<WaitCall> waits;
  std::vector<CasCall> cas;
  std::vector<DetachCall> detaches;
  std::vector<HotMarker> hot_markers;
  std::vector<RngDecl> rngs;
  std::vector<ContainerDecl> containers;
  std::vector<ContainerLoop> container_loops;
  std::vector<EntropyUse> entropy;
  std::vector<SeedSink> seed_sinks;
  std::vector<FloatDecl> floats;
  std::vector<PoolLambda> pool_lambdas;
  /// held_by_line[i] = normalized names of mutexes held at the end of
  /// line i+1 (plus any guard opened earlier on that line).
  std::vector<std::vector<std::string>> held_by_line;
  /// Pure token view, one entry per line (comments and literal contents
  /// blanked); rules run their token scans over this.
  std::vector<std::string> tokens;
};

/// Reduce `text` (the contents of `path`) to its lock model.
FileModel scan_file(const std::string& path, const std::string& text);

/// Strip a member expression to the identifier the declaration uses:
/// "&this->session.write_mutex" -> "write_mutex".
std::string normalize_mutex_name(std::string expr);

}  // namespace epp::lint::srcmodel
