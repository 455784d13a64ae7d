// The benchmark's own checks:
//   * composition — the layer-by-layer pipeline is the program users run:
//     same partition, quality counts and committed final states as
//     framework::run_parallel, for every workload's configuration;
//   * oracle gate — a perturbed result, a stalled run or a wrong lane is
//     reported as a failure, never passed;
//   * spans — each layer call records one span under the repeat's root,
//     and the root's self time is exactly what the children leave out.

#include <gtest/gtest.h>

#include <numeric>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "pipeline.hpp"

namespace perfbench {
namespace {

// Short horizons keep each case to about a second; the pipeline and the
// checks are the same code the benchmark times.
Workload small(const std::string& name) {
  Workload w = make_workload(name, instance_seed(7, 0));
  w.cfg.end_time = name == "native_wide" ? 400 : 800;
  return w;
}

class Composition : public ::testing::TestWithParam<std::string> {};

TEST_P(Composition, MatchesRunParallel) {
  const Workload w = small(GetParam());
  const PipelineResult r = run_pipeline(w);
  const pls::circuit::Circuit c =
      pls::circuit::make_iscas_like(w.circuit, w.circuit_seed);
  const pls::framework::DriverResult d =
      pls::framework::run_parallel(c, w.cfg);

  EXPECT_EQ(r.circuit.size(), c.size());
  EXPECT_EQ(r.partition.assign, d.partition.assign);
  EXPECT_EQ(r.edge_cut, d.edge_cut);
  EXPECT_EQ(r.comm_volume, d.comm_volume);
  EXPECT_DOUBLE_EQ(r.imbalance, d.imbalance);
  EXPECT_DOUBLE_EQ(r.weighted_imbalance, d.weighted_imbalance);
  EXPECT_DOUBLE_EQ(r.concurrency, d.concurrency);
  EXPECT_EQ(r.run.totals.events_committed, d.run.totals.events_committed);
  EXPECT_TRUE(r.run.final_states == d.run.final_states);
  EXPECT_EQ(check_repeat(w, r, run_oracle(w, r.circuit)), "");
}

INSTANTIATE_TEST_SUITE_P(Workloads, Composition,
                         ::testing::ValuesIn(workload_names()));

TEST(OracleGate, PerturbedFinalStateFails) {
  const Workload w = small("native_scalar");
  PipelineResult r = run_pipeline(w);
  const pls::logicsim::SeqStats oracle = run_oracle(w, r.circuit);
  ASSERT_EQ(check_repeat(w, r, oracle), "");
  r.run.final_states[r.run.final_states.size() / 2].b ^= 1;
  EXPECT_NE(check_repeat(w, r, oracle), "");
}

TEST(OracleGate, CommittedCountMismatchFails) {
  const Workload w = small("native_scalar");
  PipelineResult r = run_pipeline(w);
  const pls::logicsim::SeqStats oracle = run_oracle(w, r.circuit);
  r.run.totals.events_committed += 1;
  EXPECT_NE(check_repeat(w, r, oracle), "");
}

TEST(OracleGate, StalledOrOutOfMemoryFails) {
  const Workload w = small("native_scalar");
  PipelineResult r = run_pipeline(w);
  const pls::logicsim::SeqStats oracle = run_oracle(w, r.circuit);
  r.run.stalled = true;
  EXPECT_NE(check_repeat(w, r, oracle), "");
  r.run.stalled = false;
  r.run.out_of_memory = true;
  EXPECT_NE(check_repeat(w, r, oracle), "");
}

TEST(OracleGate, WrongLaneFails) {
  const Workload w = small("native_wide");
  const PipelineResult r = run_pipeline(w);
  const pls::logicsim::SeqStats oracle = run_oracle(w, r.circuit);
  for (unsigned lane : {0u, w.cfg.lanes / 2, w.cfg.lanes - 1}) {
    LaneReference ref = lane_reference(w, r.circuit, lane);
    ASSERT_EQ(check_repeat(w, r, oracle, &ref), "") << "lane " << lane;
    // The reference of a neighbouring lane is another stimulus stream.
    LaneReference other = lane_reference(w, r.circuit, lane == 0 ? 1 : 0);
    other.lane = lane;
    EXPECT_NE(check_repeat(w, r, oracle, &other), "") << "lane " << lane;
  }
}

TEST(Spans, OnePerLayerCallUnderTheRepeatRoot) {
  const Workload w = small("paper_modeled");
  Tracer t;
  const PipelineResult r = run_pipeline(w, &t, 3);
  std::vector<std::string> names;
  for (const Span& s : t.spans()) {
    names.push_back(s.name);
    EXPECT_EQ(s.repeat, 3u);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  const std::vector<std::string> expected = {
      "repeat",          "circuit",           "logicsim.profile",
      "multilevel.weights", "partition",      "partition.metrics",
      "logicsim.elaborate", "warped",         "warped.construct",
      "warped.run"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(t.spans()[0].parent, -1);
  for (std::size_t i = 1; i < t.spans().size(); ++i) {
    const bool under_warped = names[i].rfind("warped.", 0) == 0;
    EXPECT_EQ(t.spans()[i].parent, under_warped ? 7 : 0) << names[i];
  }

  // The root spans time_to_result; its self time is the unattributed rest.
  const auto total = t.per_repeat_seconds(false);
  const auto self = t.per_repeat_seconds(true);
  double children = 0.0;
  for (const auto& [name, v] : total) {
    if (name != "repeat" && name.rfind("warped.", 0) != 0) children += v[0];
  }
  EXPECT_NEAR(self.at("repeat")[0] + children, total.at("repeat")[0], 1e-6);
  EXPECT_NEAR(total.at("repeat")[0], r.time_to_result_s, 1e-4);
  EXPECT_NEAR(self.at("warped")[0] + total.at("warped.construct")[0] +
                  total.at("warped.run")[0],
              total.at("warped")[0], 1e-6);
}

}  // namespace
}  // namespace perfbench
