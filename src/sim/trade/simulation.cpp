#include "sim/trade/simulation.hpp"

#include <utility>

#include "util/annotations.hpp"

namespace epp::sim::trade {
namespace {

/// Mean buy requests per buy-user session before logoff.
constexpr double kMeanBuysPerSession = 10.0;

}  // namespace

Simulation::Simulation(const std::vector<ServerSpec>& servers,
                       std::size_t db_concurrency, double db_speed,
                       double disk_speed, double warmup_s,
                       const std::optional<CacheConfig>& cache)
    : db_cpu_(engine_, db_speed, "db.cpu"),
      disk_(engine_, disk_speed, "db.disk"),
      db_slots_(db_concurrency, servers.size()),
      cache_config_(cache),
      cache_(cache ? cache->capacity_bytes : 0),
      metrics_(warmup_s) {
  for (const ServerSpec& server : servers) {
    app_cpus_.push_back(std::make_unique<PsResource>(
        engine_, server.speed, server.name + ".cpu"));
    app_slots_.push_back(std::make_unique<SlotPool>(server.concurrency, 1));
  }
}

std::uint32_t Simulation::add_class(const ServiceClassSpec& spec) {
  classes_.push_back(spec);
  return static_cast<std::uint32_t>(classes_.size() - 1);
}

void Simulation::reserve_clients(std::size_t n) {
  client_class_.reserve(n);
  client_server_.reserve(n);
  client_bucket_.reserve(n);
  client_rng_.reserve(n);
  logged_in_.reserve(n);
  remaining_buys_.reserve(n);
  portfolio_.reserve(n);
  engine_.reserve(n);  // a client has at most one pending event
}

std::uint32_t Simulation::add_client(std::uint32_t cls, std::uint32_t server,
                                     std::size_t bucket, util::Rng rng) {
  const auto id = static_cast<std::uint32_t>(client_class_.size());
  client_class_.push_back(cls);
  client_server_.push_back(server);
  client_bucket_.push_back(bucket);
  client_rng_.push_back(std::move(rng));
  logged_in_.push_back(0);
  remaining_buys_.push_back(0);
  portfolio_.push_back(0);
  return id;
}

void Simulation::issue_at(std::uint32_t client, double time) {
  engine_.schedule_raw_at(time, &Simulation::think_fired, this, client);
}

std::uint32_t Simulation::alloc_request() {
  if (free_requests_.empty()) {
    requests_.emplace_back();
    return static_cast<std::uint32_t>(requests_.size() - 1);
  }
  const std::uint32_t r = free_requests_.back();
  free_requests_.pop_back();
  requests_[r] = Request{};
  return r;
}

Operation Simulation::next_operation(std::uint32_t c) {
  if (spec_of(c).type == UserType::kBrowse)
    return sample_browse_operation(client_rng_[c]);
  if (!logged_in_[c]) {
    logged_in_[c] = 1;
    portfolio_[c] = 0;
    remaining_buys_[c] =
        client_rng_[c].geometric_trials(1.0 / kMeanBuysPerSession);
    return Operation::kRegisterLogin;
  }
  if (remaining_buys_[c] > 0) {
    --remaining_buys_[c];
    ++portfolio_[c];
    return Operation::kBuy;
  }
  logged_in_[c] = 0;
  return Operation::kLogoff;
}

std::uint64_t Simulation::session_bytes(std::uint32_t c) const {
  const CacheConfig& cc = *cache_config_;
  if (spec_of(c).type == UserType::kBrowse) return cc.browse_session_bytes;
  return cc.buy_session_base_bytes + cc.per_holding_bytes * portfolio_[c];
}

EPP_HOT_BEGIN(request_path);

void Simulation::think(std::uint32_t client) {
  const double delay =
      client_rng_[client].exponential(spec_of(client).mean_think_time_s);
  engine_.schedule_raw_after(delay, &Simulation::think_fired, this, client);
}

void Simulation::schedule_open_arrival(std::uint32_t g) {
  const double rate = spec_of(g).open_arrival_rps;
  engine_.schedule_raw_after(client_rng_[g].exponential(1.0 / rate),
                             &Simulation::open_arrival_fired, this, g);
}

void Simulation::think_fired(void* self, std::uint64_t client) {
  static_cast<Simulation*>(self)->issue(static_cast<std::uint32_t>(client),
                                        false);
}

void Simulation::open_arrival_fired(void* self, std::uint64_t generator) {
  auto& sim = *static_cast<Simulation*>(self);
  const auto g = static_cast<std::uint32_t>(generator);
  sim.issue(g, true);
  sim.schedule_open_arrival(g);
}

void Simulation::issue(std::uint32_t c, bool open_request) {
  const std::uint32_t r = alloc_request();
  Request& req = requests_[r];
  req.client = c;
  req.op = next_operation(c);
  req.issue_time = engine_.now();
  req.open_request = open_request ? 1 : 0;
  app_slots_[client_server_[c]]->acquire(0, [this, r] { admitted(r); });
}

void Simulation::admitted(std::uint32_t r) {
  Request& req = requests_[r];
  const OperationProfile& prof = profile(req.op);
  const std::uint32_t c = req.client;
  // Session-cache lookup happens when processing starts; a miss costs an
  // extra DB call to read the session before the operation's own calls.
  if (cache_config_ && cache_.enabled()) {
    if (req.op == Operation::kLogoff) {
      cache_.invalidate(c);
    } else if (!cache_.access(c, session_bytes(c))) {
      req.has_fetch = 1;
      req.fetch_cpu_s = cache_config_->session_fetch_db_cpu_s;
      req.fetch_disk_s = cache_config_->session_fetch_disk_s;
    }
  }
  // Drawn from the client's own RNG. A closed client has one outstanding
  // request, so drawing here rather than at issue leaves its sequence of
  // draws unchanged.
  const std::size_t op_calls = sample_db_calls(prof, client_rng_[c]);
  req.total_calls = static_cast<std::uint8_t>(op_calls + req.has_fetch);
  req.call_cpu_s = prof.db_cpu_per_call;
  req.call_disk_s = prof.disk_per_call;
  req.app_slice_s = prof.app_cpu_s / static_cast<double>(req.total_calls + 1);
  do_slice(r);
}

void Simulation::do_slice(std::uint32_t r) {
  const std::uint32_t server = client_server_[requests_[r].client];
  app_cpus_[server]->add_job(requests_[r].app_slice_s, [this, r] {
    const Request& req = requests_[r];
    if (req.next_call < req.total_calls) {
      db_call(r);
    } else {
      finish(r);
    }
  });
}

void Simulation::db_call(std::uint32_t r) {
  if (requests_[r].issue_time >= metrics_.warmup()) ++measured_db_calls_;
  db_slots_.acquire(client_server_[requests_[r].client], [this, r] {
    const Request& req = requests_[r];
    const bool fetch = req.has_fetch && req.next_call == 0;
    db_cpu_.add_job(fetch ? req.fetch_cpu_s : req.call_cpu_s, [this, r] {
      const Request& inner = requests_[r];
      const bool f = inner.has_fetch && inner.next_call == 0;
      disk_.add_job(f ? inner.fetch_disk_s : inner.call_disk_s, [this, r] {
        db_slots_.release();
        ++requests_[r].next_call;
        do_slice(r);
      });
    });
  });
}

void Simulation::finish(std::uint32_t r) {
  const Request req = requests_[r];
  const std::uint32_t c = req.client;
  app_slots_[client_server_[c]]->release();
  metrics_.record(client_bucket_[c], req.issue_time, engine_.now());
  if (req.issue_time >= metrics_.warmup()) {
    ++measured_requests_;
    if (req.op == Operation::kBuy) ++measured_buy_requests_;
  }
  free_requests_.push_back(r);
  if (!req.open_request) think(c);
}

EPP_HOT_END(request_path);

}  // namespace epp::sim::trade
