// The runtime lock-rank tracker (util/lock_rank.hpp) and its
// cross-check against the static analyzer.
//
// The tracker enforces the same strict-ascent discipline epp_srclint
// checks statically: a thread may only acquire a mutex whose rank is
// greater than every rank it already holds. These tests swap in a
// recording violation handler (the default aborts) and drive real
// RankedMutex objects through legal and illegal acquisition orders.
//
// The cross-check at the bottom is the contract the ISSUE calls for:
// the SAME defect file — tests/lint_corpus/src/rank_inversion.cpp —
// is compiled into this binary and executed under the tracker, and fed
// to epp_srclint as text. Both checkers must flag it, naming the same
// two locks.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/diagnostic.hpp"
#include "lint/src/srclint.hpp"
#include "util/annotations.hpp"
#include "util/lock_rank.hpp"

#include "lint_corpus/src/rank_inversion.cpp"  // the shared defect fixture

#if defined(__SANITIZE_THREAD__)
#define EPP_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EPP_TSAN_BUILD 1
#endif
#endif

#ifdef EPP_TSAN_BUILD
// These tests execute inverted acquisitions on purpose — including the
// corpus defect below — and TSan's own deadlock detector (a fourth
// checker over the same discipline) rightly reports them once enough
// edges accumulate in one process. Suppress by file name so a real
// inversion anywhere else in the tree still fails the TSan job.
extern "C" const char* __tsan_default_suppressions();
extern "C" const char* __tsan_default_suppressions() {
  return "deadlock:rank_inversion.cpp\n"
         "deadlock:util_lock_rank_test.cpp\n";
}
#endif

namespace epp {
namespace {

#ifndef EPP_LOCK_RANK_CHECKS

TEST(LockRank, TrackerCompiledOut) {
  GTEST_SKIP() << "EPP_LOCK_RANK_CHECKS is off in this build "
                  "(enable EPP_SANITIZE or a Debug build)";
}

#else  // EPP_LOCK_RANK_CHECKS

struct Violation {
  std::string acquiring;
  int acquiring_rank = 0;
  std::string held;
  int held_rank = 0;
};

std::vector<Violation>& recorded() {
  static std::vector<Violation> violations;
  return violations;
}

void record_violation(const char* acquiring, int acquiring_rank,
                      const char* held, int held_rank) {
  recorded().push_back(
      Violation{acquiring, acquiring_rank, held, held_rank});
}

class LockRank : public ::testing::Test {
 protected:
  void SetUp() override {
    recorded().clear();
    util::lock_rank::set_violation_handler(&record_violation);
  }
  void TearDown() override {
    util::lock_rank::set_violation_handler(nullptr);  // restore abort
  }
};

TEST_F(LockRank, AscendingAcquisitionIsSilent) {
  util::RankedMutex low{EPP_LOCK_RANK(1), "test.low"};
  util::RankedMutex high{EPP_LOCK_RANK(2), "test.high"};
  {
    const util::MutexLock a(low);
    const util::MutexLock b(high);
  }
  EXPECT_TRUE(recorded().empty());
  EXPECT_EQ(util::lock_rank::held_count(), 0);
}

TEST_F(LockRank, DescendingAcquisitionFiresWithBothNames) {
  util::RankedMutex low{EPP_LOCK_RANK(1), "test.low"};
  util::RankedMutex high{EPP_LOCK_RANK(2), "test.high"};
  {
    const util::MutexLock a(high);
    const util::MutexLock b(low);
  }
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded()[0].acquiring, "test.low");
  EXPECT_EQ(recorded()[0].acquiring_rank, 1);
  EXPECT_EQ(recorded()[0].held, "test.high");
  EXPECT_EQ(recorded()[0].held_rank, 2);
}

TEST_F(LockRank, EqualRankIsAViolationToo) {
  // Strict ascent: two rank-5 mutexes can be taken in either order by
  // different threads, which is exactly the deadlock the rule exists
  // to prevent.
  util::RankedMutex a{EPP_LOCK_RANK(5), "test.a"};
  util::RankedMutex b{EPP_LOCK_RANK(5), "test.b"};
  {
    const util::MutexLock la(a);
    const util::MutexLock lb(b);
  }
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded()[0].acquiring, "test.b");
  EXPECT_EQ(recorded()[0].held, "test.a");
}

TEST_F(LockRank, DoubleLockReportsTheSameMutexOnBothSides) {
  util::RankedMutex m{EPP_LOCK_RANK(3), "test.once"};
  m.lock();
  m.lock();  // would self-deadlock without the recording handler
  m.unlock();
  m.unlock();
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded()[0].acquiring, "test.once");
  EXPECT_EQ(recorded()[0].held, "test.once");
}

TEST_F(LockRank, ReleaseOutOfOrderStillBalances) {
  util::RankedMutex a{EPP_LOCK_RANK(1), "test.a"};
  util::RankedMutex b{EPP_LOCK_RANK(2), "test.b"};
  a.lock();
  b.lock();
  a.unlock();  // released before b: stack must not corrupt
  EXPECT_EQ(util::lock_rank::held_count(), 1);
  b.unlock();
  EXPECT_EQ(util::lock_rank::held_count(), 0);
  EXPECT_TRUE(recorded().empty());
}

TEST_F(LockRank, TryLockParticipatesInTheDiscipline) {
  util::RankedMutex low{EPP_LOCK_RANK(1), "test.low"};
  util::RankedMutex high{EPP_LOCK_RANK(2), "test.high"};
  const util::MutexLock held(high);
  ASSERT_TRUE(low.try_lock());
  low.unlock();
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded()[0].acquiring, "test.low");
}

// --- the static/runtime cross-check ---------------------------------------

TEST_F(LockRank, CrossCheckBothCheckersFlagTheSameCorpusDefect) {
  // Runtime side: execute the corpus functions under the tracker.
  lint_corpus::lock_in_order();
  EXPECT_TRUE(recorded().empty())
      << "the in-order path must not trip the tracker";

  lint_corpus::lock_inverted();
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded()[0].acquiring, "corpus.low");
  EXPECT_EQ(recorded()[0].acquiring_rank, 10);
  EXPECT_EQ(recorded()[0].held, "corpus.high");
  EXPECT_EQ(recorded()[0].held_rank, 20);

  // Static side: the analyzer reads the same file as text and must
  // name the same two locks at the inverted acquisition.
  lint::Diagnostics diagnostics;
  lint::lint_sources(
      {std::string(EPP_LINT_CORPUS_DIR) + "/src/rank_inversion.cpp"},
      diagnostics);
  ASSERT_EQ(diagnostics.size(), 1u);
  const lint::Diagnostic& finding = diagnostics.all()[0];
  EXPECT_EQ(finding.rule, "EPP-CONC-001");
  EXPECT_EQ(finding.severity, lint::Severity::kError);
  EXPECT_EQ(finding.location.line, 24);
  EXPECT_NE(finding.message.find("corpus.low"), std::string::npos);
  EXPECT_NE(finding.message.find("corpus.high"), std::string::npos);
}

#endif  // EPP_LOCK_RANK_CHECKS

}  // namespace
}  // namespace epp
