// Time-to-result benchmark: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Repeats the layer-by-layer pipeline (pipeline.hpp) until --seconds of
// repeats have run (at least kMinRepeats), checks every repeat against the
// sequential oracle, and prints as the last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 alternates traced and untraced repeats and
// reports the per-layer metrics (spans, kernel and pool counters).  A
// human-readable table of everything measured goes to stderr, and a full
// record (provenance, per-repeat samples, spans) to --out.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "framework/partition_cache.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/metrics.hpp"
#include "pipeline.hpp"
#include "util/timer.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::PipelineResult;
using perfbench::Workload;

constexpr std::uint32_t kMinRepeats = 5;
/// Reserved for re-checking later claims; never used while tuning.
constexpr std::uint64_t kHeldOutSeed = 9173;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--trace") {
      a->trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (k == "--out") {
      a->out_dir = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--source-digest") {
      a->source_digest = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed &&
         a->seconds > 0.0 && a->seconds <= 600.0 && a->trace >= 0;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The highest percentile with at least ten samples beyond it (the sample
/// with exactly ten larger ones); the maximum when there are fewer than 11.
double tail(std::vector<double> v, double* percentile) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > 10 ? n - 11 : n - 1;
  *percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return v[idx];
}

/// Hand freed heap back to the system and restart the resident-set
/// high-water mark, so the next peak_rss_mb() reads what one repeat grew
/// to from a clean heap, as a fresh process running the pipeline once
/// would (otherwise the peak drifts with what earlier repeats left cached
/// in the allocator's per-thread arenas).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Resident-set high-water mark (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

/// Per-repeat measurements.  Counters are read from the returned RunStats.
struct Sample {
  bool warmup = false;
  bool traced = false;
  std::uint64_t instance_seed = 0;
  std::string failure;  ///< empty = identical to the oracle
  double ttr = 0, setup = 0, sim = 0, seq = 0, verify = 0;
  double work = 0, seq_work = 0;
  double rss_mb = 0;  ///< peak resident set during the pipeline
  std::map<std::string, double> counters;
};

std::map<std::string, double> kernel_counters(const PipelineResult& r) {
  const pls::warped::RunStats& run = r.run;
  const pls::warped::NodeStats& t = run.totals;
  std::map<std::string, double> m;
  auto d = [](auto x) { return static_cast<double>(x); };
  m["warped.events_processed"] = d(t.events_processed);
  m["warped.efficiency"] =
      t.events_processed > 0
          ? d(t.events_committed) / d(t.events_processed)
          : 0.0;
  m["warped.events_rolled_back"] = d(t.events_rolled_back);
  m["warped.rollbacks"] = d(t.total_rollbacks());
  m["warped.anti_messages"] = d(t.anti_messages_sent);
  m["warped.inter_node_messages"] = d(t.inter_node_messages);
  m["warped.coalesce_factor"] =
      t.batches_sent > 0 ? d(t.batch_msgs_sent) / d(t.batches_sent) : 0.0;
  m["warped.gvt_rounds"] = d(run.gvt_cycles);
  m["warped.throttle_shrinks"] = d(t.throttle_shrinks);
  m["warped.idle_polls"] = d(t.idle_polls);
  m["warped.idle_sleeps"] = d(t.idle_sleeps);
  double max_ev = 0.0;
  double sum_ev = 0.0;
  std::size_t peak_live = 0;
  for (const pls::warped::NodeStats& n : run.per_node) {
    max_ev = std::max(max_ev, d(n.events_processed));
    sum_ev += d(n.events_processed);
    peak_live = std::max(peak_live, n.peak_live_entries);
  }
  m["warped.node_skew"] =
      sum_ev > 0 ? max_ev / (sum_ev / d(run.per_node.size())) : 0.0;
  m["warped.peak_live_entries"] = d(peak_live);
  m["mem.slab_bytes"] = d(t.pool_slab_bytes);
  m["mem.blocks_recycled"] = d(t.pool_blocks_recycled);
  m["mem.heap_fallbacks"] = d(t.pool_heap_fallbacks);
  return m;
}

/// One repeat on input instance `rep` of the run: the timed pipeline, then
/// (untimed) the sequential oracle and the checks against it.
Sample measure_repeat(const Workload& w, perfbench::Tracer* tracer,
                      std::uint32_t rep, PipelineResult* keep) {
  Sample s;
  s.traced = tracer != nullptr;
  s.instance_seed = w.cfg.seed;
  reset_peak_rss();
  PipelineResult r = perfbench::run_pipeline(w, tracer, rep);
  s.rss_mb = peak_rss_mb();
  s.ttr = r.time_to_result_s;
  s.setup = r.setup_s;
  s.sim = r.sim_s;
  s.work = static_cast<double>(perfbench::committed_work(r.run));
  const pls::logicsim::SeqStats oracle =
      perfbench::run_oracle(w, r.circuit, &s.seq);
  for (std::uint64_t x : oracle.per_lp_lane_work) {
    s.seq_work += static_cast<double>(x);
  }
  const std::uint64_t t0 = pls::util::steady_now_ns();
  if (w.cfg.lanes > 1) {
    // Lane-aware check: one lane per repeat, rotating over first, middle
    // and last, against its independent scalar run.
    const unsigned lanes = w.cfg.lanes;
    const unsigned pick[3] = {0u, lanes / 2, lanes - 1};
    const perfbench::LaneReference ref =
        perfbench::lane_reference(w, r.circuit, pick[rep % 3]);
    s.failure = perfbench::check_repeat(w, r, oracle, &ref);
  } else {
    s.failure = perfbench::check_repeat(w, r, oracle);
  }
  s.verify = static_cast<double>(pls::util::steady_now_ns() - t0) * 1e-9;
  s.counters = kernel_counters(r);
  const pls::hypergraph::Hypergraph hg =
      pls::hypergraph::Hypergraph::from_circuit(r.circuit);
  s.counters["partition.edge_cut"] = static_cast<double>(r.edge_cut);
  s.counters["partition.lambda1"] = static_cast<double>(
      pls::hypergraph::connectivity_minus_one(hg, r.partition));
  s.counters["partition.imbalance"] = r.imbalance;
  if (keep != nullptr) *keep = std::move(r);
  return s;
}

/// Time a partition-cache hit (key + load) of `r`'s assignment, the way
/// framework::run_parallel would replay it, in a scratch directory.
double cache_hit_seconds(const Workload& w, const PipelineResult& r,
                         const std::string& dir) {
  const pls::framework::DriverConfig& cfg = w.cfg;
  pls::partition::MultilevelOptions ml = cfg.multilevel;
  if (cfg.use_activity) ml.weights = &r.weights;
  auto key = [&] {
    return pls::framework::partition_cache_key(
        r.circuit, cfg.num_nodes, cfg.partitioner, cfg.seed, ml, ml.weights);
  };
  std::filesystem::remove_all(dir);
  pls::framework::partition_cache_store(dir, key(), r.partition);
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = pls::util::steady_now_ns();
    pls::partition::Partition p;
    const bool hit = pls::framework::partition_cache_load(
        dir, key(), cfg.num_nodes, r.circuit.size(), &p);
    times.push_back(static_cast<double>(pls::util::steady_now_ns() - t0) *
                    1e-9);
    if (!hit || p.assign != r.partition.assign) {
      throw std::runtime_error("partition cache did not replay the assignment");
    }
  }
  std::filesystem::remove_all(dir);
  return median(times);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

std::vector<double> pick(const std::vector<Sample>& ss, bool traced,
                         double Sample::*field) {
  std::vector<double> out;
  for (const Sample& s : ss) {
    if (!s.warmup && s.traced == traced) out.push_back(s.*field);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  try {
    const Workload w = perfbench::make_workload(args.workload, args.seed);
    const bool trace = args.trace == 1;
    const std::string out_dir = args.out_dir.empty() ? "." : args.out_dir;
    std::filesystem::create_directories(out_dir);
    const std::string stem = out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace);

    std::vector<Sample> samples;
    perfbench::Tracer tracer;

    // Warm-up repeat: untimed (spin calibration, allocator growth, page
    // faults) but verified and counted like every other repeat.
    PipelineResult first;
    samples.push_back(measure_repeat(
        perfbench::make_workload(w.name, perfbench::instance_seed(args.seed, 0)),
        nullptr, 0, &first));
    samples.back().warmup = true;
    const double cache_hit_s =
        trace ? cache_hit_seconds(
                    perfbench::make_workload(w.name, samples.back().instance_seed),
                    first, stem + ".cache")
              : 0.0;
    const std::size_t gates = first.circuit.size();
    first = PipelineResult{};

    const std::uint64_t t_begin = pls::util::steady_now_ns();
    const auto budget_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
    for (std::uint32_t rep = 1;; ++rep) {
      const std::uint32_t measured = rep - 1;
      if (measured >= kMinRepeats &&
          pls::util::steady_now_ns() - t_begin >= budget_ns) {
        break;
      }
      // Traced runs alternate traced / untraced repeats so the difference
      // of their medians is the tracing overhead.
      const bool traced_rep = trace && rep % 2 == 1;
      samples.push_back(measure_repeat(
          perfbench::make_workload(w.name, perfbench::instance_seed(args.seed, rep)),
          traced_rep ? &tracer : nullptr, rep, nullptr));
    }
    const double measured_s =
        static_cast<double>(pls::util::steady_now_ns() - t_begin) * 1e-9;

    std::uint64_t failed = 0;
    for (const Sample& s : samples) failed += s.failure.empty() ? 0 : 1;
    const std::uint64_t attempted = samples.size();

    // End-to-end metrics come from untraced measured repeats.  Times are
    // the first quartile over repeats and rates the third (the quarter
    // toward the good side); setup_s and peak_rss_mb, which have no tail,
    // are medians.  native_scalar's sim_s has a long throttle-collapse tail
    // whose share swings with the host between runs (a tenth to over half
    // of the repeats), which moves a median or a mean from run to run by
    // more than any bound; the first quartile stays on the uncollapsed
    // repeats until three in four collapse.  The tail itself is reported
    // per layer (warped.sim_mean_s, warped.sim_tail_s, the slow-repeat
    // share).
    const auto ttr = pick(samples, false, &Sample::ttr);
    const auto setup = pick(samples, false, &Sample::setup);
    const auto sim = pick(samples, false, &Sample::sim);
    const auto seq = pick(samples, false, &Sample::seq);
    const auto rss = pick(samples, false, &Sample::rss_mb);
    std::vector<double> work_per_s, speedup;
    for (const Sample& s : samples) {
      if (s.warmup || s.traced) continue;
      work_per_s.push_back(s.work / s.sim);
      speedup.push_back(s.seq / s.sim);
    }
    const std::vector<std::pair<Metric, std::vector<double>>> e2e_samples = {
        {{"time_to_result_s", quantile(ttr, 0.25), "s"}, ttr},
        {{"setup_s", median(setup), "s"}, setup},
        {{"sim_s", quantile(sim, 0.25), "s"}, sim},
        {{"work_per_s", quantile(work_per_s, 0.75), "1/s"}, work_per_s},
        {{"seq_s", quantile(seq, 0.25), "s"}, seq},
        {{"speedup_vs_seq", quantile(speedup, 0.75), "ratio"}, speedup},
        {{"peak_rss_mb", median(rss), "MB"}, rss},
    };
    std::vector<Metric> e2e;
    for (const auto& [m, v] : e2e_samples) e2e.push_back(m);

    // Per-layer metrics: spans of the traced repeats, counters of all
    // measured repeats of this process.
    std::vector<Metric> layer;
    std::vector<std::string> failures;
    for (const Sample& s : samples) {
      if (!s.failure.empty()) failures.push_back(s.failure);
    }
    std::map<std::string, double> span_med, self_med;
    for (const auto& [name, v] : tracer.per_repeat_seconds(false)) {
      span_med[name] = median(v);
    }
    for (const auto& [name, v] : tracer.per_repeat_seconds(true)) {
      self_med[name] = median(v);
    }
    auto span_s = [&](const char* n) {
      auto it = span_med.find(n);
      return it == span_med.end() ? 0.0 : it->second;
    };
    std::vector<double> seq_wps, verify, sim_all;
    std::map<std::string, std::vector<double>> ctr;
    for (const Sample& s : samples) {
      if (s.warmup) continue;
      seq_wps.push_back(s.seq_work / s.seq);
      verify.push_back(s.verify);
      sim_all.push_back(s.sim);
      for (const auto& [k, v] : s.counters) ctr[k].push_back(v);
    }
    const auto traced_ttr = pick(samples, true, &Sample::ttr);
    double tail_pct = 0.0;
    const double sim_tail = tail(sim_all, &tail_pct);
    layer = {
        {"circuit.build_s", span_s("circuit"), "s"},
        {"logicsim.profile_s", span_s("logicsim.profile"), "s"},
        {"logicsim.elaborate_s", span_s("logicsim.elaborate"), "s"},
        {"logicsim.seq_work_per_s", median(seq_wps), "1/s"},
        {"logicsim.verify_s", median(verify), "s"},
        {"multilevel.weights_s", span_s("multilevel.weights"), "s"},
        {"partition.run_s", span_s("partition"), "s"},
        {"partition.metrics_s", span_s("partition.metrics"), "s"},
        {"framework.cache_hit_s", cache_hit_s, "s"},
        {"framework.unattributed_s", self_med["repeat"], "s"},
        {"trace.coverage",
         span_s("repeat") > 0 ? 1.0 - self_med["repeat"] / span_s("repeat")
                              : 0.0,
         "ratio"},
        {"warped.construct_s", span_s("warped.construct"), "s"},
        {"warped.run_s", span_s("warped.run"), "s"},
        {"warped.sim_mean_s", mean(sim_all), "s"},
        {"warped.sim_tail_s", sim_tail, "s"},
        {"trace.overhead_s", median(traced_ttr) - median(ttr), "s"},
    };
    for (const auto& [k, v] : ctr) {
      const bool count = k != "warped.efficiency" &&
                         k != "warped.coalesce_factor" &&
                         k != "warped.node_skew" &&
                         k != "partition.imbalance";
      layer.push_back({k, median(v),
                       k == "mem.slab_bytes" ? "bytes"
                       : count              ? "count"
                                            : "ratio"});
    }

    // Slow-repeat accounting (the native_scalar throttle-collapse tail):
    // a repeat is slow when its sim_s is over twice the run's fastest.
    const double fastest =
        sim_all.empty() ? 0.0 : *std::min_element(sim_all.begin(), sim_all.end());
    std::size_t slow = 0;
    std::vector<double> slow_shrinks, slow_gvt, fast_shrinks, fast_gvt;
    for (const Sample& s : samples) {
      if (s.warmup) continue;
      const bool is_slow = s.sim > 2.0 * fastest;
      slow += is_slow ? 1 : 0;
      (is_slow ? slow_shrinks : fast_shrinks)
          .push_back(s.counters.at("warped.throttle_shrinks"));
      (is_slow ? slow_gvt : fast_gvt)
          .push_back(s.counters.at("warped.gvt_rounds"));
    }
    const double slow_share =
        sim_all.empty() ? 0.0
                        : static_cast<double>(slow) /
                              static_cast<double>(sim_all.size());
    layer.push_back({"warped.slow_repeat_share", slow_share, "ratio"});
    layer.push_back(
        {"warped.slow_repeat_shrinks", median(slow_shrinks), "count"});
    layer.push_back(
        {"warped.slow_repeat_gvt_rounds", median(slow_gvt), "count"});

    // Human-readable report of everything measured.
    std::fprintf(stderr,
                 "perfbench %s seed=%llu trace=%d: %zu gates, %u nodes, "
                 "%s cost, horizon %llu, %u lanes; %llu repeats "
                 "(%zu untraced timed) in %.1f s, %llu failed\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 args.trace, gates, w.cfg.num_nodes,
                 perfbench::cost_mode(w).c_str(),
                 static_cast<unsigned long long>(w.cfg.end_time), w.cfg.lanes,
                 static_cast<unsigned long long>(attempted), ttr.size(),
                 measured_s, static_cast<unsigned long long>(failed));
    for (const auto& [m, v] : e2e_samples) {
      std::fprintf(stderr,
                   "  %-28s %14.6g %-6s (per repeat: median %.6g, q1 %.6g, "
                   "q3 %.6g, n %zu)\n",
                   m.name.c_str(), m.value, m.unit.c_str(), median(v),
                   quantile(v, 0.25), quantile(v, 0.75), v.size());
    }
    std::fprintf(stderr, "  %-28s %14.6g %-6s\n", "fail_ratio",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 "ratio");
    for (const Metric& m : layer) {
      std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::fprintf(stderr, "  sim tail is p%.0f of %zu repeats; slow repeats %zu"
                 " (shrinks median %g, gvt rounds median %g) vs fast"
                 " (shrinks median %g, gvt rounds median %g)\n",
                 tail_pct, sim_all.size(), slow, median(slow_shrinks),
                 median(slow_gvt), median(fast_shrinks), median(fast_gvt));
    if (trace) {
      std::fprintf(stderr, "  self time per span (median over %zu traced "
                   "repeats):\n", traced_ttr.size());
      for (const auto& [name, v] : self_med) {
        std::fprintf(stderr, "    %-24s %10.6f s\n", name.c_str(), v);
      }
    }
    for (const std::string& f : failures) {
      std::fprintf(stderr, "  FAILED repeat: %s\n", f.c_str());
    }

    // Full record: provenance, metrics and per-repeat samples.
    {
      std::ofstream os(stem + ".json");
      os << "{\n  \"provenance\": {\"workload\": \"" << w.name
         << "\", \"seed\": " << args.seed
         << ", \"held_out_seed\": " << kHeldOutSeed
         << ", \"git_sha\": \"" << args.git_sha
         << "\", \"source_digest\": \"" << args.source_digest
         << "\", \"compiler\": \"" << PERFBENCH_COMPILER
         << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
         << "\", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"node_threads\": " << w.cfg.num_nodes
         << ", \"cost_mode\": \"" << perfbench::cost_mode(w)
         << "\", \"partitioner\": \"" << w.cfg.partitioner
         << "\", \"activity\": " << (w.cfg.use_activity ? "true" : "false")
         << ", \"circuit\": \"" << w.circuit << "\", \"gates\": " << gates
         << ", \"horizon\": " << w.cfg.end_time
         << ", \"lanes\": " << w.cfg.lanes
         << ", \"trace\": " << args.trace
         << ", \"seconds\": " << num(args.seconds)
         << ", \"attempted\": " << attempted
         << ", \"untraced_samples\": " << ttr.size()
         << ", \"traced_samples\": " << traced_ttr.size() << "},\n";
      os << "  \"end_to_end\": " << metrics_json(e2e) << ",\n";
      os << "  \"per_layer\": " << metrics_json(layer) << ",\n";
      os << "  \"repeats\": [\n";
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        os << "    {\"instance_seed\": " << s.instance_seed
           << ", \"warmup\": " << (s.warmup ? "true" : "false")
           << ", \"traced\": " << (s.traced ? "true" : "false")
           << ", \"ok\": " << (s.failure.empty() ? "true" : "false")
           << ", \"time_to_result_s\": " << num(s.ttr)
           << ", \"setup_s\": " << num(s.setup) << ", \"sim_s\": " << num(s.sim)
           << ", \"seq_s\": " << num(s.seq)
           << ", \"verify_s\": " << num(s.verify)
           << ", \"peak_rss_mb\": " << num(s.rss_mb)
           << ", \"committed_work\": " << num(s.work);
        for (const auto& [k, v] : s.counters) {
          os << ", \"" << k << "\": " << num(v);
        }
        os << "}" << (i + 1 < samples.size() ? ",\n" : "\n");
      }
      os << "  ]\n}\n";
    }
    if (trace && !tracer.write_json(stem + ".spans.json")) {
      std::fprintf(stderr, "cannot write %s.spans.json\n", stem.c_str());
      return 1;
    }

    const std::vector<Metric>& out = trace ? layer : e2e;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics_json(out).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
