#pragma once
// The benchmark's workloads.  Each is a framework::DriverConfig, so the
// layer-by-layer pipeline and framework::run_parallel read the exact same
// settings (the composition test relies on that).
//
// All three simulate the s15850 stand-in (10,994 gates) on 4 node threads;
// they differ in which layer dominates time-to-result:
//   paper_modeled  MultilevelHG + activity profile under the paper's modeled
//                  testbed (1.5 µs/event, 3 µs/send, 50 µs latency): the
//                  partitioner is a large share of time-to-result and the
//                  cut decides the message count, so partitioner speed and
//                  quality both show.
//   native_scalar  graph Multilevel, all costs 0, one lane: our own kernel
//                  and scalar LP code are the whole cost.
//   native_wide    graph Multilevel, all costs 0, 256 lanes: fewer, fatter
//                  events through the Batch*Lp family and the arena pool.

#include <cstdint>
#include <string>
#include <vector>

#include "framework/driver.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::string circuit = "s15850";
  /// Generator seed of the circuit: always the canonical stand-in's.  The
  /// generator seed changes sequential work by over 3x (circuit activity),
  /// which no per-run median can average out.
  std::uint64_t circuit_seed = 2000;
  pls::framework::DriverConfig cfg;
};

const std::vector<std::string>& workload_names();

/// The named workload on one input instance: `seed` is its stimulus and
/// partitioner seed.  Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Seed of input instance `i` of a run with workload seed `seed`.  Every
/// repeat of a run simulates a fresh instance: one instance's partition
/// and stimulus decide how often the optimistic kernel thrashes, so a
/// median over many instances is what repeats across workload seeds.
std::uint64_t instance_seed(std::uint64_t seed, std::uint32_t i);

/// Human-readable cost mode: "modeled" or "native".
std::string cost_mode(const Workload& w);

}  // namespace perfbench
