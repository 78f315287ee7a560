// Runtime fixture for the lock-rank tracker: tests/util_lock_rank_test.cpp
// #includes this file and calls lock_inverted() under a recording
// handler, which must name both locks. No source rule flags it: lock
// order is the tracker's to check.
#include "util/annotations.hpp"
#include "util/lock_rank.hpp"

namespace lint_corpus {

inline epp::util::RankedMutex corpus_low{EPP_LOCK_RANK(10), "corpus.low"};
inline epp::util::RankedMutex corpus_high{EPP_LOCK_RANK(20), "corpus.high"};

inline void lock_in_order() {
  const epp::util::MutexLock low(corpus_low);
  const epp::util::MutexLock high(corpus_high);
}

inline void lock_inverted() {
  const epp::util::MutexLock high(corpus_high);
  const epp::util::MutexLock low(corpus_low);  // rank 10 under rank 20
}

}  // namespace lint_corpus
