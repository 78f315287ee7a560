#include "svc/prediction_cache.hpp"

#include <functional>
#include <stdexcept>

namespace epp::svc {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::string_view method_name(Method method) {
  switch (method) {
    case Method::kHistorical:
      return "historical";
    case Method::kLqn:
      return "lqn";
    case Method::kHybrid:
      return "hybrid";
  }
  throw std::invalid_argument("method_name: unknown method");
}

Method method_from_name(std::string_view name) {
  if (name == "historical") return Method::kHistorical;
  if (name == "lqn" || name == "layered-queuing") return Method::kLqn;
  if (name == "hybrid") return Method::kHybrid;
  throw std::invalid_argument("method_from_name: unknown method '" +
                              std::string(name) + "'");
}

std::size_t CacheKeyHash::operator()(const CacheKey& key) const noexcept {
  std::size_t h = std::hash<std::string>{}(key.server);
  const auto mix = [&h](std::uint64_t v) {
    h ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  };
  mix(static_cast<std::uint64_t>(key.method));
  mix(static_cast<std::uint64_t>(key.browse_q));
  mix(static_cast<std::uint64_t>(key.buy_q));
  mix(static_cast<std::uint64_t>(key.think_q));
  return h;
}

PredictionCache::PredictionCache(std::size_t capacity_per_shard,
                                 std::size_t shards)
    : capacity_per_shard_(capacity_per_shard) {
  if (capacity_per_shard_ == 0)
    throw std::invalid_argument("PredictionCache: capacity must be positive");
  const std::size_t count = round_up_pow2(shards == 0 ? 1 : shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

PredictionCache::Shard& PredictionCache::shard_for(const CacheKey& key) const {
  // High bits pick the shard so it decorrelates from the hash map's
  // low-bit bucket selection; shard count is a power of two.
  const std::size_t h = CacheKeyHash{}(key);
  return *shards_[(h >> 16) & (shards_.size() - 1)];
}

std::optional<CachedPrediction> PredictionCache::lookup(const CacheKey& key) {
  Shard& shard = shard_for(key);
  const util::MutexLock lock(shard.mutex);
  const auto it = shard.index_.find(key);
  if (it == shard.index_.end()) {
    ++shard.misses_;
    return std::nullopt;
  }
  ++shard.hits_;
  shard.lru_.splice(shard.lru_.begin(), shard.lru_, it->second);
  return it->second->second;
}

std::optional<CachedPrediction> PredictionCache::peek(
    const CacheKey& key) const {
  Shard& shard = shard_for(key);
  const util::MutexLock lock(shard.mutex);
  const auto it = shard.index_.find(key);
  if (it == shard.index_.end()) return std::nullopt;
  return it->second->second;
}

void PredictionCache::insert(const CacheKey& key,
                             const CachedPrediction& value) {
  Shard& shard = shard_for(key);
  const util::MutexLock lock(shard.mutex);
  const auto it = shard.index_.find(key);
  if (it != shard.index_.end()) {
    it->second->second = value;
    shard.lru_.splice(shard.lru_.begin(), shard.lru_, it->second);
    return;
  }
  if (shard.lru_.size() >= capacity_per_shard_) {
    shard.index_.erase(shard.lru_.back().first);
    shard.lru_.pop_back();
    ++shard.evictions_;
  }
  shard.lru_.emplace_front(key, value);
  shard.index_.emplace(key, shard.lru_.begin());
}

CacheStats PredictionCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    total.hits += shard->hits_;
    total.misses += shard->misses_;
    total.evictions += shard->evictions_;
    total.entries += shard->lru_.size();
  }
  return total;
}

void PredictionCache::clear() {
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    shard->lru_.clear();
    shard->index_.clear();
    shard->hits_ = shard->misses_ = shard->evictions_ = 0;
  }
}

}  // namespace epp::svc
