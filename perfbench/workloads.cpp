#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_modeled", "native_scalar", "native_wide"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  pls::framework::DriverConfig& cfg = w.cfg;
  cfg.num_nodes = 4;
  cfg.seed = seed;
  if (name == "paper_modeled") {
    // DriverConfig's cost defaults are the paper's modeled testbed.
    cfg.partitioner = "MultilevelHG";
    cfg.use_activity = true;
    cfg.activity_source = pls::framework::DriverConfig::ActivitySource::kProfile;
    cfg.end_time = 4000;
    return w;
  }
  cfg.partitioner = "Multilevel";
  cfg.event_cost_ns = 0;
  cfg.send_overhead_ns = 0;
  cfg.latency_ns = 0;
  if (name == "native_scalar") {
    cfg.lanes = 1;
    cfg.end_time = 5000;
    return w;
  }
  if (name == "native_wide") {
    cfg.lanes = 256;
    cfg.end_time = 1000;
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t instance_seed(std::uint64_t seed, std::uint32_t i) {
  // splitmix64 of (seed, i): neighbouring seeds share no instances.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) >> 1;  // below 2^63: printable as a signed integer
}

std::string cost_mode(const Workload& w) {
  const auto& c = w.cfg;
  return c.event_cost_ns == 0 && c.send_overhead_ns == 0 && c.latency_ns == 0
             ? "native"
             : "modeled";
}

}  // namespace perfbench
