#include "pipeline.hpp"

#include <memory>

#include "circuit/generator.hpp"
#include "framework/registry.hpp"
#include "logicsim/activity.hpp"
#include "logicsim/equivalence.hpp"
#include "logicsim/lanes.hpp"
#include "logicsim/netlist_lps.hpp"
#include "multilevel/metrics.hpp"
#include "partition/metrics.hpp"
#include "util/timer.hpp"
#include "warped/kernel.hpp"

namespace perfbench {
namespace {

namespace fw = pls::framework;
namespace logicsim = pls::logicsim;
namespace warped = pls::warped;

double seconds_between(std::uint64_t a_ns, std::uint64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

logicsim::ModelOptions model_options(const fw::DriverConfig& cfg,
                                     std::uint64_t stim_seed,
                                     std::uint32_t lanes) {
  logicsim::ModelOptions mo = cfg.model;
  mo.stim_seed = stim_seed;
  mo.lanes = lanes;
  return mo;
}

// framework/driver.cpp's DriverConfig → KernelConfig mapping.
warped::KernelConfig kernel_config(const fw::DriverConfig& cfg) {
  warped::KernelConfig kc;
  kc.num_nodes = cfg.num_nodes;
  kc.end_time = cfg.end_time;
  kc.event_cost_ns = cfg.event_cost_ns;
  kc.network.send_overhead_ns = cfg.send_overhead_ns;
  kc.network.latency_ns = cfg.latency_ns;
  kc.coalesce.enabled = cfg.coalesce;
  kc.coalesce.max_batch_msgs = cfg.coalesce_max_batch;
  kc.gvt_interval_us = cfg.gvt_interval_us;
  kc.state_period = cfg.state_period;
  kc.throttle = cfg.throttle;
  kc.optimism_window = cfg.optimism_window;
  kc.max_batches_per_poll = cfg.max_batches_per_poll;
  kc.max_live_entries_per_node = cfg.max_live_entries_per_node;
  kc.watchdog_timeout_ms = cfg.watchdog_timeout_ms;
  return kc;
}

struct Stamps {
  std::uint64_t sim = 0;      ///< before Kernel construction
  std::uint64_t run = 0;      ///< before Kernel::run
  std::uint64_t sim_end = 0;  ///< after run() returned and the kernel died
};

// The layer calls; the model and profile die on return, so their teardown
// counts toward time-to-result like it does in run_parallel.
void run_layers(const Workload& w, Tracer* tracer, std::uint32_t repeat,
                PipelineResult& r, Stamps& at) {
  const fw::DriverConfig& cfg = w.cfg;
  {
    ScopedSpan s(tracer, "circuit", repeat);
    r.circuit = pls::circuit::make_iscas_like(w.circuit, w.circuit_seed);
  }
  const pls::circuit::Circuit& c = r.circuit;

  pls::partition::MultilevelOptions ml = cfg.multilevel;
  if (cfg.use_activity) {
    const warped::SimTime horizon =
        cfg.activity_horizon != 0 ? cfg.activity_horizon : cfg.end_time / 4;
    logicsim::ActivityProfile profile;
    {
      ScopedSpan s(tracer, "logicsim.profile", repeat);
      profile = logicsim::profile_activity(
          c, model_options(cfg, cfg.seed, cfg.lanes), horizon);
    }
    {
      ScopedSpan s(tracer, "multilevel.weights", repeat);
      r.weights = pls::multilevel::weights_from_activity(
          profile.work, profile.traffic, cfg.weight_options);
    }
    ml.weights = &r.weights;
  }

  {
    ScopedSpan s(tracer, "partition", repeat);
    const auto strategy = fw::make_partitioner(cfg.partitioner, ml);
    r.partition = strategy->run(c, cfg.num_nodes, cfg.seed);
  }
  {
    ScopedSpan s(tracer, "partition.metrics", repeat);
    r.partition.validate(c.size());
    r.edge_cut = pls::partition::edge_cut(c, r.partition);
    r.comm_volume = pls::partition::comm_volume(c, r.partition);
    r.imbalance = pls::partition::imbalance(c, r.partition);
    r.weighted_imbalance =
        ml.weights != nullptr ? pls::multilevel::weighted_imbalance(
                                    r.partition, ml.weights->vertex)
                              : r.imbalance;
    r.concurrency = pls::partition::concurrency(c, r.partition);
  }

  logicsim::SimModel model;
  {
    ScopedSpan s(tracer, "logicsim.elaborate", repeat);
    model = logicsim::build_model(c, model_options(cfg, cfg.seed, cfg.lanes));
  }

  {
    ScopedSpan s(tracer, "warped", repeat);
    at.sim = pls::util::steady_now_ns();
    std::unique_ptr<warped::Kernel> kernel;
    {
      ScopedSpan k(tracer, "warped.construct", repeat);
      kernel = std::make_unique<warped::Kernel>(
          model.behaviours(), r.partition.assign, kernel_config(cfg));
    }
    at.run = pls::util::steady_now_ns();
    ScopedSpan k(tracer, "warped.run", repeat);
    r.run = kernel->run();
  }
  at.sim_end = pls::util::steady_now_ns();
}

}  // namespace

PipelineResult run_pipeline(const Workload& w, Tracer* tracer,
                            std::uint32_t repeat) {
  PipelineResult r;
  Stamps at;
  const std::uint64_t t_start = pls::util::steady_now_ns();
  {
    ScopedSpan root(tracer, "repeat", repeat);
    run_layers(w, tracer, repeat, r, at);
  }
  const std::uint64_t t_end = pls::util::steady_now_ns();
  r.time_to_result_s = seconds_between(t_start, t_end);
  r.setup_s = seconds_between(t_start, at.run);
  r.sim_s = seconds_between(at.sim, at.sim_end);
  return r;
}

logicsim::SeqStats run_oracle(const Workload& w,
                              const pls::circuit::Circuit& c,
                              double* seconds) {
  const logicsim::SimModel model = logicsim::build_model(
      c, model_options(w.cfg, w.cfg.seed, w.cfg.lanes));
  const std::uint64_t t0 = pls::util::steady_now_ns();
  logicsim::SeqStats seq = logicsim::simulate_sequential(
      model.behaviours(), w.cfg.end_time, w.cfg.event_cost_ns);
  if (seconds != nullptr) {
    *seconds = seconds_between(t0, pls::util::steady_now_ns());
  }
  return seq;
}

LaneReference lane_reference(const Workload& w, const pls::circuit::Circuit& c,
                             unsigned lane) {
  const logicsim::SimModel model = logicsim::build_model(
      c, model_options(w.cfg, logicsim::lane_seed(w.cfg.seed, lane), 1));
  return {lane,
          logicsim::simulate_sequential(model.behaviours(), w.cfg.end_time, 0)
              .final_states};
}

std::string check_repeat(const Workload& w, const PipelineResult& r,
                         const logicsim::SeqStats& oracle,
                         const LaneReference* lane) {
  if (r.run.stalled) return "stalled (watchdog abort)";
  if (r.run.out_of_memory) return "out of memory (live-entry limit)";
  const logicsim::EquivalenceReport eq =
      logicsim::check_equivalence(r.run, oracle);
  if (!eq.ok()) {
    return "not identical to the sequential oracle: " + eq.describe();
  }
  if (lane != nullptr) {
    const logicsim::EquivalenceReport lq = logicsim::check_lane_equivalence(
        r.circuit, r.run.final_states, lane->lane, w.cfg.lanes, lane->finals);
    if (!lq.ok()) {
      return "lane " + std::to_string(lane->lane) +
             " not identical to its scalar run: " + lq.describe();
    }
  }
  return {};
}

std::uint64_t committed_work(const warped::RunStats& run) {
  std::uint64_t total = 0;
  for (const warped::LpStats& lp : run.per_lp) total += lp.lane_work_committed;
  return total;
}

}  // namespace perfbench
