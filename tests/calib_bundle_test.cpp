// The unified calibration pipeline: bundle serialization round trips,
// line-numbered rejection of malformed artifacts, and the headline
// contract — predictors built from a loaded bundle return *bit-identical*
// predictions (== on doubles) to freshly calibrated ones for all three
// methods.
#include "calib/bundle.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "calib/catalog.hpp"
#include "calib/predictor_set.hpp"
#include "calib/seeds.hpp"
#include "util/thread_pool.hpp"

namespace epp::calib {
namespace {

/// One shared calibration for the whole suite (the expensive half of the
/// paper's cost asymmetry; run it once).
const CalibrationBundle& fixture_bundle() {
  static const CalibrationBundle bundle = [] {
    util::ThreadPool pool;
    CalibrationOptions options;
    options.pool = &pool;
    return calibrate(options);
  }();
  return bundle;
}

std::string replace_line(const std::string& text, const std::string& from,
                         const std::string& to) {
  std::string out = text;
  const auto at = out.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  out.replace(at, from.size(), to);
  return out;
}

TEST(CalibCatalog, EstablishedServersComeFirst) {
  const auto& names = server_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "AppServF");
  EXPECT_EQ(names[1], "AppServVF");
  EXPECT_EQ(names[2], "AppServS");
  EXPECT_TRUE(catalog_record("AppServF").established);
  EXPECT_TRUE(catalog_record("AppServVF").established);
  EXPECT_FALSE(catalog_record("AppServS").established);
  EXPECT_THROW(catalog_record("AppServX"), std::invalid_argument);
}

TEST(CalibCatalog, SpecsMatchTestbedDefinitions) {
  for (const std::string& name : server_names()) {
    const sim::trade::ServerSpec spec = spec_for(name);
    const core::ServerArch arch = arch_for(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_EQ(arch.name, name);
    EXPECT_DOUBLE_EQ(spec.speed, arch.speed);
  }
  EXPECT_DOUBLE_EQ(spec_for("AppServF").speed, 1.0);
}

TEST(CalibSeeds, ValidationSeedDistinctFromCalibrationSeeds) {
  const CalibrationBundle& bundle = fixture_bundle();
  EXPECT_NE(kValidationSeed, bundle.lqn_seed);
  EXPECT_NE(kValidationSeed, bundle.mix_seed);
  EXPECT_NE(kValidationSeed, bundle.sweep_seed);
}

TEST(CalibBundle, TextIsStableAcrossRoundTrips) {
  const std::string once = to_text(fixture_bundle());
  EXPECT_EQ(to_text(bundle_from_text(once)), once);
}

TEST(CalibBundle, RoundTripPreservesEveryField) {
  const CalibrationBundle& original = fixture_bundle();
  const CalibrationBundle loaded = bundle_from_text(to_text(original));

  EXPECT_EQ(loaded.lqn_seed, original.lqn_seed);
  EXPECT_EQ(loaded.mix_seed, original.mix_seed);
  EXPECT_EQ(loaded.sweep_seed, original.sweep_seed);
  EXPECT_EQ(loaded.gradient_m, original.gradient_m);

  ASSERT_EQ(loaded.servers.size(), original.servers.size());
  for (std::size_t i = 0; i < original.servers.size(); ++i) {
    const ServerRecord& a = original.servers[i];
    const ServerRecord& b = loaded.servers[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.established, a.established);
    EXPECT_EQ(b.sim.speed, a.sim.speed);
    EXPECT_EQ(b.sim.concurrency, a.sim.concurrency);
    EXPECT_EQ(b.sim.established, a.sim.established);
    EXPECT_EQ(b.arch.speed, a.arch.speed);
    EXPECT_EQ(b.arch.app_concurrency, a.arch.app_concurrency);
    EXPECT_EQ(b.arch.db_concurrency, a.arch.db_concurrency);
    EXPECT_EQ(b.max_throughput_rps, a.max_throughput_rps);
  }

  EXPECT_EQ(loaded.lqn.browse.app_demand_s, original.lqn.browse.app_demand_s);
  EXPECT_EQ(loaded.lqn.browse.db_cpu_per_call_s,
            original.lqn.browse.db_cpu_per_call_s);
  EXPECT_EQ(loaded.lqn.browse.disk_per_call_s,
            original.lqn.browse.disk_per_call_s);
  EXPECT_EQ(loaded.lqn.browse.mean_db_calls,
            original.lqn.browse.mean_db_calls);
  EXPECT_EQ(loaded.lqn.buy.app_demand_s, original.lqn.buy.app_demand_s);

  ASSERT_EQ(loaded.mix_points.size(), original.mix_points.size());
  for (std::size_t i = 0; i < original.mix_points.size(); ++i) {
    EXPECT_EQ(loaded.mix_points[i].buy_pct, original.mix_points[i].buy_pct);
    EXPECT_EQ(loaded.mix_points[i].max_throughput_rps,
              original.mix_points[i].max_throughput_rps);
  }

  // Model provenance survives (established order drives relationship 2).
  EXPECT_EQ(loaded.mean_model.established_servers(),
            original.mean_model.established_servers());
  EXPECT_EQ(loaded.p90_model.established_servers(),
            original.p90_model.established_servers());
}

// The acceptance criterion: a predictor set built from a bundle that went
// through disk-format text returns exactly the predictions of the fresh
// in-process calibration, for every method, server and workload probed.
TEST(CalibBundle, LoadedPredictionsBitIdenticalToFresh) {
  const CalibrationBundle& fresh_bundle = fixture_bundle();
  const CalibrationBundle loaded_bundle =
      bundle_from_text(to_text(fresh_bundle));
  const PredictorSet fresh = make_predictors(fresh_bundle);
  const PredictorSet loaded = make_predictors(loaded_bundle);

  const std::vector<const core::Predictor*> fresh_methods{
      fresh.historical.get(), fresh.lqn.get(), fresh.hybrid.get()};
  const std::vector<const core::Predictor*> loaded_methods{
      loaded.historical.get(), loaded.lqn.get(), loaded.hybrid.get()};

  for (std::size_t m = 0; m < fresh_methods.size(); ++m) {
    for (const std::string& server : server_names()) {
      for (const double clients : {150.0, 700.0, 1300.0, 2400.0}) {
        for (const double buy_fraction : {0.0, 0.25}) {
          core::WorkloadSpec w;
          w.buy_clients = clients * buy_fraction;
          w.browse_clients = clients - w.buy_clients;
          const std::string context = fresh_methods[m]->name() + " " + server +
                                      " n=" + std::to_string(clients) +
                                      " buy=" + std::to_string(buy_fraction);
          EXPECT_EQ(fresh_methods[m]->predict_mean_rt_s(server, w),
                    loaded_methods[m]->predict_mean_rt_s(server, w))
              << context;
          EXPECT_EQ(fresh_methods[m]->predict_throughput_rps(server, w),
                    loaded_methods[m]->predict_throughput_rps(server, w))
              << context;
        }
      }
      EXPECT_EQ(fresh_methods[m]->predict_max_throughput_rps(server, 0.25),
                loaded_methods[m]->predict_max_throughput_rps(server, 0.25))
          << server;
      EXPECT_EQ(
          fresh_methods[m]->max_clients_for_goal(server, 0.6).max_clients,
          loaded_methods[m]->max_clients_for_goal(server, 0.6).max_clients)
          << server;
    }
  }

  // The historical method's direct-percentile model rides along too.
  for (const std::string& server : server_names()) {
    ASSERT_TRUE(loaded.historical->has_direct_p90(server)) << server;
    for (const double clients : {300.0, 1500.0})
      EXPECT_EQ(fresh.historical->predict_p90_direct(server, clients),
                loaded.historical->predict_p90_direct(server, clients))
          << server;
  }
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(EPP_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Byte-exact calibration: every simulator run keeps its config and seed,
// and each run writes only its own slot, so the artifact text does not
// depend on whether or how wide a pool the runs fan out on.
void expect_golden_on_every_pool(CalibrationOptions options,
                                 const std::string& golden_name) {
  const std::string golden = read_golden(golden_name);
  util::ThreadPool one(1), four(4);
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 &one, &four}) {
    options.pool = pool;
    EXPECT_EQ(to_text(calibrate(options)), golden)
        << golden_name << " on "
        << (pool == nullptr ? std::string("no pool")
                            : std::to_string(pool->size()) + "-thread pool");
  }
}

TEST(CalibGolden, DefaultBundleIsByteIdenticalOnEveryPool) {
  expect_golden_on_every_pool({}, "calibrate_default.epp");
}

// The epp_sweep --replications path: each saturation benchmark averages
// two seed-derived replications, merged in index order.
TEST(CalibGolden, ReplicatedBundleIsByteIdenticalOnEveryPool) {
  CalibrationOptions options;
  options.replications = 2;
  options.measure_mix = false;
  expect_golden_on_every_pool(options, "calibrate_replicated_no_mix.epp");
}

TEST(CalibBundle, SaveAndLoadFileRoundTrip) {
  const std::string path = testing::TempDir() + "calib_bundle_test.epp";
  save_bundle(path, fixture_bundle());
  const CalibrationBundle loaded = load_bundle(path);
  EXPECT_EQ(to_text(loaded), to_text(fixture_bundle()));
  EXPECT_THROW(load_bundle(path + ".does-not-exist"), std::runtime_error);
}

TEST(CalibBundle, RejectsMalformedInputWithLineNumbers) {
  auto message_of = [](const std::string& text) -> std::string {
    try {
      (void)bundle_from_text(text);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };

  EXPECT_NE(message_of("").find("line 1"), std::string::npos);
  EXPECT_NE(message_of("not-a-bundle\n").find("line 1"), std::string::npos);
  EXPECT_NE(message_of("epp-bundle v1\nbogus record\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(message_of("epp-bundle v1\ngradient -3\n").find("bad gradient"),
            std::string::npos);
  EXPECT_NE(
      message_of("epp-bundle v1\nserver AppServX maybe 1 50 1 50 20 100\n")
          .find("provenance"),
      std::string::npos);
  EXPECT_NE(message_of("epp-bundle v1\nlqn-params lurk 1 2 3 4\n")
                .find("unknown request type"),
            std::string::npos);
  // A structurally valid file missing required sections fails at the end.
  EXPECT_NE(message_of("epp-bundle v1\ngradient 0.14\n")
                .find("missing lqn-params"),
            std::string::npos);
}

TEST(CalibBundle, RejectsNonFiniteAndOutOfRangeNumbers) {
  // A corrupted artifact must fail at load time with the offending line,
  // not surface later as NaN predictions. Note operator>> happily parses
  // "nan"/"inf", so these exercise the explicit numeric validation.
  const std::string text = to_text(fixture_bundle());
  const auto message_of = [&](const std::string& from, const std::string& to) {
    try {
      (void)bundle_from_text(replace_line(text, from, to));
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string();
  };

  // Layout: line 3 gradient, 4-5 lqn-params, 6+ servers, then mix-points.
  const std::string bad_gradient = message_of("gradient ", "gradient nan #");
  EXPECT_NE(bad_gradient.find("line 3"), std::string::npos) << bad_gradient;
  EXPECT_NE(bad_gradient.find("bad gradient"), std::string::npos);
  EXPECT_NE(message_of("gradient ", "gradient inf #").find("bad gradient"),
            std::string::npos);
  EXPECT_NE(message_of("gradient ", "gradient 0 #").find("bad gradient"),
            std::string::npos);

  // This toolchain's operator>> refuses "nan"/"inf" (failbit), so those
  // land on the record-shape errors; the explicit range checks are what
  // catches negatives, zeros and out-of-range values that *do* parse.
  const std::string nan_params = message_of(
      "lqn-params browse ", "lqn-params browse nan 0.001 0.0004 1.14 #");
  EXPECT_NE(nan_params.find("line 4"), std::string::npos) << nan_params;
  const std::string negative_params = message_of(
      "lqn-params buy ", "lqn-params buy -0.01 0.001 0.0005 2 #");
  EXPECT_NE(negative_params.find("line 5"), std::string::npos)
      << negative_params;
  EXPECT_NE(negative_params.find("finite and non-negative"),
            std::string::npos);

  const std::string bad_speed = message_of(
      "server AppServF ", "server AppServF established -1 50 1 50 20 186 #");
  EXPECT_NE(bad_speed.find("line 6"), std::string::npos) << bad_speed;
  EXPECT_NE(bad_speed.find("finite and positive"), std::string::npos);
  EXPECT_NE(
      message_of("server AppServF ",
                 "server AppServF established 1 50 1 50 20 -186 #")
          .find("finite and positive"),
      std::string::npos);
  EXPECT_NE(message_of("server AppServF ",
                       "server AppServF established 1 0 1 50 20 186 #")
                .find("concurrency limits must be positive"),
            std::string::npos);

  EXPECT_NE(message_of("mix-point 0 ", "mix-point 150 200 #")
                .find("within [0, 100]"),
            std::string::npos);
  EXPECT_NE(message_of("mix-point 0 ", "mix-point -5 200 #")
                .find("within [0, 100]"),
            std::string::npos);
  EXPECT_NE(message_of("mix-point 0 ", "mix-point 0 -200 #")
                .find("finite and positive"),
            std::string::npos);
}

TEST(CalibBundle, RejectsTruncatedArtifacts) {
  const std::string text = to_text(fixture_bundle());

  // Cut the file mid-way through the embedded p90 model block.
  const auto p90_at = text.find("hydra-model p90");
  ASSERT_NE(p90_at, std::string::npos);
  const auto cut = text.find('\n', text.find('\n', p90_at) + 1);
  const std::string truncated = text.substr(0, cut + 1);
  try {
    (void)bundle_from_text(truncated);
    FAIL() << "truncated artifact accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("truncated hydra-model block"),
              std::string::npos)
        << error.what();
  }

  // Declared line count larger than the block really is.
  const std::string overlong = replace_line(text, "hydra-model p90 ",
                                            "hydra-model p90 9");
  EXPECT_THROW((void)bundle_from_text(overlong), std::invalid_argument);
}

TEST(CalibBundle, RejectsGradientModelMismatch) {
  const std::string text = to_text(fixture_bundle());
  const std::string skewed =
      replace_line(text, "gradient ", "gradient 0.5 #");
  try {
    (void)bundle_from_text(skewed);
    FAIL() << "gradient/model mismatch accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("disagrees"), std::string::npos)
        << error.what();
  }
}

TEST(CalibBundle, CorruptEmbeddedModelReportsBlock) {
  const std::string text = to_text(fixture_bundle());
  // Corrupt the embedded model header so the nested parser fails.
  const std::string corrupt =
      replace_line(text, "hydra-model v2", "hydra-model v9");
  try {
    (void)bundle_from_text(corrupt);
    FAIL() << "corrupt embedded model accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("embedded"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace epp::calib
