#pragma once
// framework::run_parallel, unrolled into one public call per layer so the
// benchmark can time each layer from outside the program:
//
//   circuit::make_iscas_like            → span "circuit"
//   logicsim::profile_activity          → span "logicsim.profile"
//   multilevel::weights_from_activity   → span "multilevel.weights"
//   framework::make_partitioner()->run  → span "partition"
//   partition quality metrics           → span "partition.metrics"
//   logicsim::build_model               → span "logicsim.elaborate"
//   warped::Kernel construct + run()    → span "warped", with children
//                                         "warped.construct", "warped.run"
//
// all under one root span "repeat".  Calls, order and arguments follow
// framework/driver.cpp (partition cache and dynamic repartitioning off);
// pipeline_test.cpp checks the two produce the same partition, quality
// counts and committed final states.

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "logicsim/sequential.hpp"
#include "multilevel/weights.hpp"
#include "partition/partition.hpp"
#include "spans.hpp"
#include "warped/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

struct PipelineResult {
  pls::circuit::Circuit circuit;
  /// Activity weights the partitioner balanced (empty without activity).
  pls::multilevel::VertexTrafficWeights weights;
  pls::partition::Partition partition;

  // The quality numbers framework::run_parallel reports for the partition.
  std::uint64_t edge_cut = 0;
  std::uint64_t comm_volume = 0;
  double imbalance = 0.0;
  double weighted_imbalance = 0.0;
  double concurrency = 0.0;

  pls::warped::RunStats run;

  // Wall times in seconds, from the same steady clock as the spans.
  double time_to_result_s = 0.0;  ///< circuit build through Kernel::run end
  double setup_s = 0.0;           ///< everything before Kernel::run starts
  double sim_s = 0.0;             ///< Kernel construction plus run()
};

/// Run the whole pipeline once.  With a tracer, every layer call records a
/// span tagged with `repeat`; without one nothing is recorded.
PipelineResult run_pipeline(const Workload& w, Tracer* tracer = nullptr,
                            std::uint32_t repeat = 0);

/// The sequential oracle for `w` on circuit `c` (a fresh model, as
/// framework::run_sequential builds it).  `seconds` receives the wall time
/// of simulate_sequential alone.
pls::logicsim::SeqStats run_oracle(const Workload& w,
                                   const pls::circuit::Circuit& c,
                                   double* seconds = nullptr);

/// Final states of the one-lane sequential run that lane `lane` of a
/// batched workload must reproduce (seed lane_seed(seed, lane)).
struct LaneReference {
  unsigned lane = 0;
  std::vector<pls::warped::LpState> finals;
};
LaneReference lane_reference(const Workload& w, const pls::circuit::Circuit& c,
                             unsigned lane);

/// Empty when the repeat is correct: not stalled, not out of memory,
/// committed states and event count identical to the oracle, and (batched
/// runs, when `lane` is given) the referenced lane identical to its scalar
/// run.  Otherwise the reason it failed.
std::string check_repeat(const Workload& w, const PipelineResult& r,
                         const pls::logicsim::SeqStats& oracle,
                         const LaneReference* lane = nullptr);

/// Committed lane transitions (== committed events at one lane).
std::uint64_t committed_work(const pls::warped::RunStats& run);

}  // namespace perfbench
