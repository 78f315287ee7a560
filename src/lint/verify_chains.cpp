// EPP-SEM-020: fallback-chain coverage. Walks the degradation chain
// ResilientPredictor builds per request (svc::fallback_chain: lqn ->
// hybrid -> historical, starting at the requested method) against the
// availability each method actually has against a bundle: the
// lqn/hybrid predictors cover every catalog server (make_predictors
// registers them all), the historical predictor only servers with a fit
// in the embedded mean model. A (method, server)
// request whose whole chain is unavailable can never terminate in a
// prediction.
#include "lint/verify.hpp"

#include <string>
#include <vector>

namespace epp::lint {

void verify_fallback_chains(const calib::CalibrationBundle& bundle,
                            const std::string& file,
                            const calib::BundleParseInfo* info,
                            const VerifyOptions& options,
                            Diagnostics& diagnostics) {
  if (!options.check_chains) return;

  // Every server a request can name: the catalog plus anything only the
  // embedded mean model knows about.
  std::vector<std::string> servers;
  std::vector<bool> in_catalog;
  for (const calib::ServerRecord& record : bundle.servers) {
    servers.push_back(record.name);
    in_catalog.push_back(true);
  }
  for (const std::string& name : bundle.mean_model.servers()) {
    bool known = false;
    for (const std::string& existing : servers)
      known = known || existing == name;
    if (!known) {
      servers.push_back(name);
      in_catalog.push_back(false);
    }
  }

  std::vector<svc::Method> methods = options.methods;
  if (methods.empty())
    methods = {svc::Method::kHistorical, svc::Method::kLqn,
               svc::Method::kHybrid};

  const svc::ResilienceOptions& res = options.resilience;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const std::string& server = servers[i];
    SourceLocation where{file, 0};
    if (info != nullptr) {
      if (const auto it = info->server_lines.find(server);
          it != info->server_lines.end())
        where.line = it->second;
      else if (const auto fit = info->mean_server_lines.find(server);
               fit != info->mean_server_lines.end())
        where.line = fit->second;
    }
    for (const svc::Method requested : methods) {
      std::string listing;
      bool viable = false;
      for (const svc::Method method :
           svc::fallback_chain(requested, res.fallback_enabled)) {
        const bool available = method == svc::Method::kHistorical
                                   ? bundle.mean_model.has_server(server)
                                   : in_catalog[i];
        viable = viable || available;
        if (!listing.empty()) listing += " -> ";
        listing += std::string(method_name(method)) +
                   (available ? "" : " (unavailable)");
      }
      if (!viable) {
        diagnostics.error(
            "EPP-SEM-020", where,
            "request (method '" + std::string(method_name(requested)) +
                "', server '" + server + "') has no viable method: chain " +
                listing + " dead-ends",
            "re-run epp_calibrate so every catalog server gets a fit, or "
            "enable fallback to reach a method that covers '" + server +
                "'");
      }
    }
  }
}

}  // namespace epp::lint
