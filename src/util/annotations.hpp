// Concurrency and hot-path annotations, consumed by three checkers:
//
//   1. clang's -Wthread-safety analysis — the EPP_CAPABILITY /
//      EPP_GUARDED_BY / EPP_REQUIRES family wraps clang's capability
//      attributes and compiles away to nothing on GCC (the default
//      toolchain), so the annotations are free everywhere and *checked*
//      in the dedicated clang CI job.
//   2. the epp_srclint static analyzer (src/lint/src) — it parses these
//      macros textually to build the per-translation-unit lock model:
//      a mutex without EPP_LOCK_RANK is outside the order (EPP-CONC-008),
//      EPP_GUARDED_BY binds a field to its mutex, and
//      EPP_HOT_BEGIN/EPP_HOT_END bracket regions where allocation,
//      locking, std::function construction and console/file I/O are
//      flagged (EPP-HOT-001..004).
//   3. the debug runtime lock-rank tracker (util/lock_rank.hpp) — the
//      integer EPP_LOCK_RANK evaluates to is fed to util::RankedMutex,
//      and the tracker checks the order on every acquisition. It is the
//      only check of lock order and re-locking.
//
// The rank convention: a thread may only acquire a mutex whose rank is
// *strictly greater* than every mutex it already holds. Outermost locks
// get low ranks, leaf locks get high ranks; the assigned ranks live in
// DESIGN.md ("The lock model").
#pragma once

#if defined(__clang__)
#define EPP_TSA_ATTR(x) __attribute__((x))
#else
#define EPP_TSA_ATTR(x)  // thread-safety attributes are clang-only
#endif

/// Type is a lockable capability (mutex wrappers).
#define EPP_CAPABILITY(x) EPP_TSA_ATTR(capability(x))
/// Type is an RAII scope that acquires in its constructor and releases
/// in its destructor.
#define EPP_SCOPED_CAPABILITY EPP_TSA_ATTR(scoped_lockable)
/// Field may only be read or written while holding `x`.
#define EPP_GUARDED_BY(x) EPP_TSA_ATTR(guarded_by(x))
/// Pointer field: the *pointee* is guarded by `x`.
#define EPP_PT_GUARDED_BY(x) EPP_TSA_ATTR(pt_guarded_by(x))
/// Function requires the caller to hold the listed capabilities.
#define EPP_REQUIRES(...) EPP_TSA_ATTR(requires_capability(__VA_ARGS__))
/// Function acquires / releases the listed capabilities.
#define EPP_ACQUIRE(...) EPP_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define EPP_RELEASE(...) EPP_TSA_ATTR(release_capability(__VA_ARGS__))
#define EPP_TRY_ACQUIRE(...) EPP_TSA_ATTR(try_acquire_capability(__VA_ARGS__))
/// Function must be called *without* the listed capabilities held.
#define EPP_EXCLUDES(...) EPP_TSA_ATTR(locks_excluded(__VA_ARGS__))
/// Escape hatch: suppress the analysis for one function. Use only for
/// condition-variable predicates (the cv re-acquires the mutex around
/// the call, which the analysis cannot see) and lock passthroughs.
#define EPP_NO_THREAD_SAFETY_ANALYSIS \
  EPP_TSA_ATTR(no_thread_safety_analysis)

/// Lock-order rank for a util::RankedMutex declaration. Evaluates to the
/// plain integer at runtime; epp_srclint keys on the macro name to learn
/// the declared rank, so every ranked mutex must be initialized as
///   util::RankedMutex mutex_{EPP_LOCK_RANK(40), "serve.server.queue"};
#define EPP_LOCK_RANK(n) (n)

/// Hot-region markers. Everything between BEGIN and END (same file,
/// matching label) is checked by the EPP-HOT rules: no heap allocation,
/// no std::function construction, no lock acquisition, no console/file
/// I/O. Expands to a statement-compatible no-op; write a trailing
/// semicolon. Regions may not nest and must be balanced per file
/// (EPP-HOT-005).
#define EPP_HOT_BEGIN(label) static_assert(true)
#define EPP_HOT_END(label) static_assert(true)
