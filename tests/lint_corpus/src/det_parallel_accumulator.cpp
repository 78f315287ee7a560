// Corpus: EPP-DET-004 — shared floating-point accumulator mutated in a
// thread-pool lambda. Even made atomic this stays wrong: float addition
// is not associative, so the sum depends on lane scheduling.
#include <atomic>
#include <cstddef>

#include "util/thread_pool.hpp"

namespace lint_corpus {

inline double racy_mean(epp::util::ThreadPool& pool, std::size_t lanes) {
  double sum = 0.0;
  auto body = [&sum](std::size_t lane) {
    sum += static_cast<double>(lane);
  };
  pool.parallel_for(lanes, body);
  return sum / static_cast<double>(lanes);
}

inline double atomic_mean(epp::util::ThreadPool& pool, std::size_t lanes) {
  std::atomic<double> total{0.0};
  pool.parallel_for(lanes, [&](std::size_t lane) {
    total.fetch_add(static_cast<double>(lane));
  });
  return total.load() / static_cast<double>(lanes);
}

}  // namespace lint_corpus
