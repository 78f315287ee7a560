// Artifact canonicalization (lint/canon.hpp) — the comparison contract
// behind `epp_check replay` and CI's determinism gate. The canonical form
// must drop exactly the wall-time measurement content ("timing" objects
// and legacy *_ms / *per_second keys) and nothing else, so two runs of
// the same experiment compare byte-identical while a real payload
// difference still trips the gate.

#include <gtest/gtest.h>

#include <string>

#include "lint/canon.hpp"

namespace epp {
namespace {

using lint::canonicalize_artifact;
using lint::is_json_artifact;

TEST(LintCanon, JsonDetectionByNameAndShape) {
  EXPECT_TRUE(is_json_artifact("BENCH_sim.json", "anything"));
  EXPECT_TRUE(is_json_artifact("stdout.txt", "{\"bench\": \"serve\"}"));
  EXPECT_FALSE(is_json_artifact("sweep.csv", "load,throughput\n"));
  EXPECT_FALSE(is_json_artifact("mix.epp", std::string("EPPB\x01") + "rest"));
}

TEST(LintCanon, NonJsonArtifactsPassThroughVerbatim) {
  const std::string csv = "load,latency_ms\n100,3.25\n";
  // Even a wall-time-looking column header survives: CSV rows are part
  // of the semantic payload (simulated time, not wall time).
  EXPECT_EQ(canonicalize_artifact("sweep.csv", csv), csv);
}

TEST(LintCanon, TimingObjectIsStrippedWhole) {
  const std::string json =
      "{\n"
      "  \"provenance\": {\n"
      "    \"workload_seed\": 42\n"
      "  },\n"
      "  \"timing\": {\n"
      "    \"benchmarks\": [\n"
      "      {\"name\": \"BM_X\", \"real_ns_per_iter\": 12.5}\n"
      "    ],\n"
      "    \"engine_speedup_100k\": 3.1\n"
      "  },\n"
      "  \"events\": 1000\n"
      "}\n";
  const std::string canon = canonicalize_artifact("BENCH_sim.json", json);
  EXPECT_EQ(canon.find("timing"), std::string::npos);
  EXPECT_EQ(canon.find("real_ns_per_iter"), std::string::npos);
  EXPECT_EQ(canon.find("engine_speedup_100k"), std::string::npos);
  EXPECT_NE(canon.find("\"workload_seed\": 42"), std::string::npos);
  EXPECT_NE(canon.find("\"events\": 1000"), std::string::npos);
}

TEST(LintCanon, LegacyWallTimeKeysAreStrippedLineWise) {
  const std::string json =
      "{\n"
      "  \"sent\": 800,\n"
      "  \"requests_per_second\": 399.7,\n"
      "  \"elapsed_ms\": 2002.4,\n"
      "  \"p99_latency_ms\": 12.25,\n"
      "  \"queue_wait_us\": 90,\n"
      "  \"ok\": 800\n"
      "}\n";
  const std::string canon = canonicalize_artifact("BENCH_serve.json", json);
  EXPECT_NE(canon.find("\"sent\": 800"), std::string::npos);
  EXPECT_NE(canon.find("\"ok\": 800"), std::string::npos);
  EXPECT_EQ(canon.find("requests_per_second"), std::string::npos);
  EXPECT_EQ(canon.find("elapsed_ms"), std::string::npos);
  EXPECT_EQ(canon.find("p99_latency_ms"), std::string::npos);
  EXPECT_EQ(canon.find("queue_wait_us"), std::string::npos);
}

TEST(LintCanon, CanonicalizationIsIdempotent) {
  const std::string json =
      "{\n  \"timing\": {\n    \"wall_ms\": 5\n  },\n  \"seed\": 7\n}\n";
  const std::string once = canonicalize_artifact("a.json", json);
  EXPECT_EQ(canonicalize_artifact("a.json", once), once);
}

TEST(LintCanon, PayloadDifferencesSurvive) {
  // The gate must still see a real divergence: two artifacts that
  // differ outside the timing fields stay different after the scrub.
  const std::string a = "{\n  \"seed\": 7,\n  \"wall_ms\": 1\n}\n";
  const std::string b = "{\n  \"seed\": 8,\n  \"wall_ms\": 2\n}\n";
  EXPECT_NE(canonicalize_artifact("a.json", a),
            canonicalize_artifact("a.json", b));
}

}  // namespace
}  // namespace epp
