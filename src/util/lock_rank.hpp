// Ranked mutexes and the debug runtime lock-rank tracker.
//
// Every long-lived mutex in the tree is a RankedMutex declared with an
// EPP_LOCK_RANK(n) rank and a stable dotted name:
//
//   mutable util::RankedMutex mutex_{EPP_LOCK_RANK(30), "serve.registry"};
//
// The rank discipline is strict ascent: a thread may only acquire a
// mutex whose rank is strictly greater than the rank of every mutex it
// already holds. epp_srclint proves the discipline statically from the
// guard scopes it can see (EPP-CONC-001); this tracker enforces the
// same rule dynamically on every acquisition in debug/sanitizer builds
// (EPP_LOCK_RANK_CHECKS), so a code path the static scanner cannot
// follow — callbacks, virtual dispatch, locks taken through several
// call layers — still aborts loudly with both lock names on the first
// inversion. Release builds compile the checks out entirely; the
// wrapper is then a plain std::mutex.
#pragma once

#include <mutex>

#include "util/annotations.hpp"

namespace epp::util {

namespace lock_rank {

/// Called with (acquiring name, acquiring rank, held name, held rank)
/// when a thread acquires a mutex whose rank is not strictly greater
/// than every rank it already holds. A double-lock reports the same
/// mutex name on both sides. The default handler prints both names and
/// aborts.
using ViolationHandler = void (*)(const char* acquiring, int acquiring_rank,
                                  const char* held, int held_rank);

/// Install a handler (tests install a recording handler); returns the
/// previous one. Pass nullptr to restore the abort default.
ViolationHandler set_violation_handler(ViolationHandler handler) noexcept;

/// Record an acquisition on this thread, checking rank order first.
/// `mutex` identifies the object so re-locking the same mutex is
/// reported even when ranks would allow it (equal ranks never do).
/// Returns false when the acquisition was a same-thread re-lock and the
/// handler returned instead of aborting: the caller must then skip the
/// underlying lock() — actually re-locking a non-recursive mutex would
/// deadlock right here, under the very checker meant to report it.
bool on_acquire(int rank, const char* name, const void* mutex) noexcept;

/// Pop the record for `mutex` from this thread's held stack. Returns
/// false when that record was a downgraded re-lock, i.e. the caller
/// must skip the underlying unlock() to stay balanced.
bool on_release(const void* mutex) noexcept;

/// Number of mutexes the calling thread currently holds (test hook).
int held_count() noexcept;

}  // namespace lock_rank

/// std::mutex with a declared lock-order rank. Interface matches
/// std::mutex (BasicLockable + try_lock), so std::lock_guard,
/// std::unique_lock and std::condition_variable_any all work with it.
class EPP_CAPABILITY("mutex") RankedMutex {
 public:
  RankedMutex(int rank, const char* name) noexcept
      : rank_(rank), name_(name) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() EPP_ACQUIRE() {
#ifdef EPP_LOCK_RANK_CHECKS
    if (!lock_rank::on_acquire(rank_, name_, this)) return;
#endif
    mutex_.lock();
  }

  bool try_lock() EPP_TRY_ACQUIRE(true) {
    if (!mutex_.try_lock()) return false;
    // The underlying try_lock succeeded, so this thread cannot already
    // hold the mutex: on_acquire's re-lock branch is unreachable here.
#ifdef EPP_LOCK_RANK_CHECKS
    lock_rank::on_acquire(rank_, name_, this);
#endif
    return true;
  }

  void unlock() EPP_RELEASE() {
#ifdef EPP_LOCK_RANK_CHECKS
    if (!lock_rank::on_release(this)) return;
#endif
    mutex_.unlock();
  }

  int rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

 private:
  const int rank_;
  const char* const name_;
  std::mutex mutex_;  // epp-lint: ignore(EPP-CONC-008) tracked via the enclosing RankedMutex's rank
};

/// RAII exclusive lock over RankedMutex, annotated for clang's
/// thread-safety analysis (std::lock_guard is analysis-opaque). The
/// lock()/unlock() passthroughs exist so std::condition_variable_any
/// can release and re-acquire around a wait; they carry no analysis
/// (the cv's internal unlock/lock pairing is invisible to it).
class EPP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(RankedMutex& mutex) EPP_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() EPP_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // BasicLockable for std::condition_variable_any::wait.
  void lock() EPP_NO_THREAD_SAFETY_ANALYSIS { mutex_.lock(); }
  void unlock() EPP_NO_THREAD_SAFETY_ANALYSIS { mutex_.unlock(); }

 private:
  RankedMutex& mutex_;
};

}  // namespace epp::util
