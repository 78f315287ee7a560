#include "svc/prediction_cache.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/thread_pool.hpp"

namespace epp::svc {
namespace {

CacheKey key_of(std::int64_t browse, Method method = Method::kHistorical,
                const std::string& server = "AppServF") {
  CacheKey key;
  key.method = method;
  key.server = server;
  key.browse_q = browse;
  key.think_q = 700;
  return key;
}

CachedPrediction value_of(double x) { return {x, 2.0 * x}; }

TEST(PredictionCache, MissThenHitReturnsStoredValue) {
  PredictionCache cache(16, 1);
  EXPECT_FALSE(cache.lookup(key_of(100)).has_value());
  cache.insert(key_of(100), value_of(0.25));
  const auto hit = cache.lookup(key_of(100));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->mean_rt_s, 0.25);
  EXPECT_DOUBLE_EQ(hit->throughput_rps, 0.5);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PredictionCache, KeysDistinguishMethodServerAndWorkload) {
  PredictionCache cache(16, 4);
  cache.insert(key_of(100, Method::kHistorical), value_of(1.0));
  EXPECT_FALSE(cache.lookup(key_of(100, Method::kLqn)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(100, Method::kHistorical, "AppServS"))
                   .has_value());
  EXPECT_FALSE(cache.lookup(key_of(101)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(100)).has_value());
}

TEST(PredictionCache, LruEvictionOrder) {
  PredictionCache cache(3, 1);  // one shard so the LRU order is global
  cache.insert(key_of(1), value_of(1.0));
  cache.insert(key_of(2), value_of(2.0));
  cache.insert(key_of(3), value_of(3.0));
  // Touch key 1 so key 2 becomes the least recently used...
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  // ...a peek at key 2 reads its value but neither counts nor touches it...
  const CacheStats before_peek = cache.stats();
  const auto peeked = cache.peek(key_of(2));
  ASSERT_TRUE(peeked.has_value());
  EXPECT_DOUBLE_EQ(peeked->mean_rt_s, 2.0);
  EXPECT_FALSE(cache.peek(key_of(9)).has_value());
  EXPECT_EQ(cache.stats().hits, before_peek.hits);
  EXPECT_EQ(cache.stats().misses, before_peek.misses);
  // ...so the insert that exceeds capacity still evicts it.
  cache.insert(key_of(4), value_of(4.0));
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(4)).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(PredictionCache, InsertRefreshesExistingEntryWithoutEviction) {
  PredictionCache cache(2, 1);
  cache.insert(key_of(1), value_of(1.0));
  cache.insert(key_of(2), value_of(2.0));
  cache.insert(key_of(1), value_of(10.0));  // refresh, not a new entry
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(1))->mean_rt_s, 10.0);
  EXPECT_TRUE(cache.lookup(key_of(2)).has_value());
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(PredictionCache, ZeroCapacityIsRejected) {
  // Stale replay reads this cache, so an engine without one would
  // silently have nothing to replay.
  EXPECT_THROW(PredictionCache(0, 2), std::invalid_argument);
}

TEST(PredictionCache, ClearDropsEntriesAndResetsCounters) {
  PredictionCache cache(16, 4);
  cache.insert(key_of(1), value_of(1.0));
  (void)cache.lookup(key_of(1));
  (void)cache.lookup(key_of(2));
  cache.clear();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(PredictionCache, ConcurrentGetOrInsertIsConsistent) {
  PredictionCache cache(1024, 8);
  util::ThreadPool pool(4);
  constexpr std::size_t kKeys = 64;
  constexpr std::size_t kOps = 4000;
  // Racing get-or-compute over a shared working set: values are a pure
  // function of the key, as predictions are, so duplicate inserts agree.
  pool.parallel_for(kOps, [&](std::size_t i) {
    const std::int64_t id = static_cast<std::int64_t>(i % kKeys);
    if (!cache.lookup(key_of(id)).has_value())
      cache.insert(key_of(id), value_of(static_cast<double>(id)));
  });
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kOps);
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(stats.evictions, 0u);
  for (std::size_t id = 0; id < kKeys; ++id) {
    const auto hit = cache.lookup(key_of(static_cast<std::int64_t>(id)));
    ASSERT_TRUE(hit.has_value()) << id;
    EXPECT_DOUBLE_EQ(hit->mean_rt_s, static_cast<double>(id));
  }
}

TEST(PredictionCache, MethodNamesRoundTrip) {
  for (Method m : {Method::kHistorical, Method::kLqn, Method::kHybrid})
    EXPECT_EQ(method_from_name(method_name(m)), m);
  EXPECT_EQ(method_from_name("layered-queuing"), Method::kLqn);
  EXPECT_THROW(method_from_name("psychic"), std::invalid_argument);
}

}  // namespace
}  // namespace epp::svc
