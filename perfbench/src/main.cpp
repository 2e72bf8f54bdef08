// perfbench_tool: the benchmark's C++ half. perfbench/run.py runs it;
// every subcommand prints one JSON object on its last stdout line.
//
//   perfbench_tool info
//       Build facts: nproc, compiler, build type.
//   perfbench_tool calibrate
//       Times a fixed CPU kernel that shares no code with the simulator.
//       run.py divides host times by it to cancel machine-speed drift.
//   perfbench_tool campaign --workload W --seed S [--zero-duration]
//                    [--first N] [--threads N]
//                    [--workers K --journal F --status-json F]
//       Runs the workload's trial list (or its first N trials) through
//       runner::run_campaign, the path the bench binaries use (in-process,
//       or the multi-process pool with --workers), and prints the
//       results' digests.
//   perfbench_tool identity --workload W --seed S --trials N
//       Runs the first N trials on the traced assembly and prints their
//       digests, for comparison with the campaign's.
//   perfbench_tool traced --workload W --seed S --seconds T
//       Runs the trial list on the traced assembly until T seconds have
//       passed (at least once) and prints the per-layer metrics and the
//       results' digests.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/experiment.hpp"
#include "runner/supervisor.hpp"
#include "runner/worker.hpp"
#include "traced_stack.hpp"
#include "workloads.hpp"

namespace runner = fourbit::runner;
using perfbench::Seam;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string digest_list(const std::vector<std::uint64_t>& digests) {
  std::string out = "[";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + hex(digests[i]) + "\"";
  }
  return out + "]";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench_tool: %s\n", why);
  std::exit(2);
}

perfbench::Workload workload_from_args(int& argc, char** argv,
                                       bool zero_duration) {
  const auto name = runner::consume_flag(argc, argv, "--workload");
  const auto seed = runner::consume_uint_flag(argc, argv, "--seed");
  if (!name || !seed) usage("--workload and --seed are required");
  auto workload = perfbench::make_workload(*name, *seed, zero_duration);
  if (!workload) usage("unknown workload");
  return std::move(*workload);
}

int cmd_info() {
  std::printf(
      "{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
      std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE);
  return 0;
}

/// A fixed mix of the work the simulator does — sorting, hash-map
/// lookups, indirect calls and transcendental math — written here so
/// that no change to src/ can speed it up. Its time tracks how fast the
/// (shared, drifting) host runs right now.
int cmd_calibrate() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const std::int64_t begin = perfbench::now_ns();
  double sink = 0.0;
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint32_t> keys(1 << 16);
    for (auto& k : keys) k = static_cast<std::uint32_t>(rnd());
    std::sort(keys.begin(), keys.end());
    std::unordered_map<std::uint32_t, double> table;
    for (int i = 0; i < 50000; ++i) {
      table[static_cast<std::uint32_t>(rnd() % 60000)] += 1.0;
    }
    const std::function<double(double)> step = [&table, &rnd](double v) {
      const auto it = table.find(static_cast<std::uint32_t>(rnd() % 60000));
      return it != table.end() ? v + it->second : v * 0.5;
    };
    for (int i = 0; i < 100000; ++i) sink = step(sink);
    for (int i = 0; i < 100000; ++i) {
      sink += std::pow(1.0 - 1.0 / (2.0 + static_cast<double>(rnd() % 97)),
                       8.0 * static_cast<double>(i % 127));
    }
    sink += keys[keys.size() / 2];
  }
  std::printf("{\"calib_s\":%.9g,\"check\":%.6g}\n",
              static_cast<double>(perfbench::now_ns() - begin) * 1e-9, sink);
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  // The pool's workers re-exec this argv, so the campaign flags are read
  // first, from the untouched argv, and the trial list comes from argv
  // alone.
  const auto cli = runner::consume_campaign_cli(argc, argv);
  const bool zero = runner::consume_bool_flag(argc, argv, "--zero-duration");
  const auto first = runner::consume_uint_flag(argc, argv, "--first");
  auto workload = workload_from_args(argc, argv, zero);
  if (first && *first < workload.trials.size()) {
    workload.trials.resize(static_cast<std::size_t>(*first));
  }
  const auto report = runner::run_campaign(workload.trials, cli, {});

  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    digests.push_back(report.completed[i] != 0
                          ? perfbench::result_digest(report.results[i])
                          : 0);
  }
  const std::size_t done = static_cast<std::size_t>(
      std::count(report.completed.begin(), report.completed.end(), 1));
  const bool all_done = done == workload.trials.size();
  std::printf(
      "{\"trials\":%zu,\"completed\":%zu,\"retries\":%llu,"
      "\"respawns\":%llu,\"paper_cost_gap_pp\":%.9g,\"trial_digests\":%s}\n",
      workload.trials.size(), done,
      static_cast<unsigned long long>(report.retries),
      static_cast<unsigned long long>(report.worker_respawns),
      all_done ? perfbench::paper_cost_gap_pp(workload, report.results) : 0.0,
      digest_list(digests).c_str());
  return 0;
}

int cmd_identity(int argc, char** argv) {
  const auto trials = runner::consume_uint_flag(argc, argv, "--trials");
  const auto workload = workload_from_args(argc, argv, false);
  const std::size_t n =
      std::min<std::size_t>(trials.value_or(1), workload.trials.size());
  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < n; ++i) {
    perfbench::TraceReport report;
    digests.push_back(perfbench::result_digest(
        perfbench::run_traced(workload.trials[i], report)));
  }
  std::printf("{\"trial_digests\":%s}\n", digest_list(digests).c_str());
  return 0;
}

/// One pass of the traced command: per-layer sums over the trial list.
struct Pass {
  double traced_s = 0.0;
  double topology_s = 0.0;
  double stack_s = 0.0;
  double run_s = 0.0;
  double dispatch_s = 0.0;
  double loop_self_s = 0.0;
  double mac_phy_self_s = 0.0;
  double freeze_s = 0.0;
  double kernel_s = 0.0;
  std::array<double, perfbench::kSeamCount> seam_self_s{};
  std::int64_t min_self_ns = 0;
  perfbench::TraceReport counts;  // summed counters
  double delivery = 0.0;
  double cost = 0.0;
  std::uint64_t parent_changes = 0;
  std::uint64_t max_arena_bytes = 0;
  std::vector<std::uint64_t> digests;
};

double seconds_since(std::int64_t begin_ns) {
  return static_cast<double>(perfbench::now_ns() - begin_ns) * 1e-9;
}

Pass traced_pass(const std::string& name, std::uint64_t seed) {
  Pass pass;
  const std::int64_t gen_begin = perfbench::now_ns();
  const auto workload = *perfbench::make_workload(name, seed, false);
  pass.topology_s = seconds_since(gen_begin);

  for (const auto& config : workload.trials) {
    perfbench::TraceReport r;
    const std::int64_t begin = perfbench::now_ns();
    const auto traced = perfbench::run_traced(config, r);
    pass.traced_s += seconds_since(begin);
    pass.digests.push_back(perfbench::result_digest(traced));

    for (std::size_t s = 0; s < perfbench::kSeamCount; ++s) {
      pass.seam_self_s[s] += static_cast<double>(r.self_ns[s]) * 1e-9;
    }
    pass.min_self_ns = std::min({pass.min_self_ns, r.min_self_ns,
                                 r.split.loop_self_ns,
                                 r.split.mac_phy_self_ns});
    pass.stack_s += static_cast<double>(r.stack_ns) * 1e-9;
    pass.run_s += static_cast<double>(r.run_ns) * 1e-9;
    pass.dispatch_s += static_cast<double>(r.dispatch_ns) * 1e-9;
    pass.loop_self_s += static_cast<double>(r.split.loop_self_ns) * 1e-9;
    pass.mac_phy_self_s += static_cast<double>(r.split.mac_phy_self_ns) * 1e-9;
    pass.freeze_s += static_cast<double>(r.freeze_ns) * 1e-9;
    pass.kernel_s += static_cast<double>(r.kernel_ns) * 1e-9;

    auto& c = pass.counts;
    c.events += r.events;
    c.freezes += r.freezes;
    c.kernel_calls += r.kernel_calls;
    c.eq_resizes += r.eq_resizes;
    c.frames_tx += r.frames_tx;
    c.airtime_s += r.airtime_s;
    c.mac_sends += r.mac_sends;
    c.rx_upcalls += r.rx_upcalls;
    c.compare_calls += r.compare_calls;
    c.etx_calls += r.etx_calls;
    c.unwrap_calls += r.unwrap_calls;
    c.wrap_calls += r.wrap_calls;
    c.unicast_results += r.unicast_results;
    c.unicast_acked += r.unicast_acked;
    pass.max_arena_bytes = std::max(pass.max_arena_bytes, r.arena_bytes);
    pass.delivery += traced.delivery_ratio;
    pass.cost += traced.cost;
    pass.parent_changes += traced.parent_changes;
  }
  const auto n = static_cast<double>(workload.trials.size());
  pass.delivery /= n;
  pass.cost /= n;
  return pass;
}

int cmd_traced(int argc, char** argv) {
  const auto name = runner::consume_flag(argc, argv, "--workload");
  const auto seed = runner::consume_uint_flag(argc, argv, "--seed");
  const auto seconds = runner::consume_flag(argc, argv, "--seconds");
  if (!name || !seed || !seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  if (!perfbench::make_workload(*name, *seed, true)) usage("unknown workload");
  const double budget_s = std::atof(seconds->c_str());

  const std::int64_t begin = perfbench::now_ns();
  std::vector<Pass> passes;
  do {
    passes.push_back(traced_pass(*name, *seed));
  } while (seconds_since(begin) < budget_s);

  // Counts are deterministic: every pass must repeat the first exactly.
  std::size_t mismatches = 0;
  std::int64_t min_self_ns = 0;
  for (const Pass& p : passes) {
    if (p.digests != passes.front().digests ||
        p.counts.events != passes.front().counts.events ||
        p.counts.etx_calls != passes.front().counts.etx_calls ||
        p.counts.rx_upcalls != passes.front().counts.rx_upcalls) {
      mismatches += p.digests.size();
    }
    min_self_ns = std::min(min_self_ns, p.min_self_ns);
  }
  // Times come from the pass with the median run_for wall, so the layer
  // self times printed add up to the run_for_s printed.
  std::vector<const Pass*> by_run;
  for (const Pass& p : passes) by_run.push_back(&p);
  std::sort(by_run.begin(), by_run.end(),
            [](const Pass* a, const Pass* b) { return a->run_s < b->run_s; });
  const Pass& mid = *by_run[by_run.size() / 2];
  const auto seam = [&mid](Seam s) {
    return mid.seam_self_s[static_cast<std::size_t>(s)];
  };

  const auto& c = mid.counts;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::printf("{\"passes\":%zu,\"trials\":%zu,\"mismatches\":%zu,"
              "\"min_self_ns\":%lld,\"run_for_s\":%.9g,\"traced_s\":%.9g,"
              "\"trial_digests\":%s,\"metrics\":{",
              passes.size(), mid.digests.size(), mismatches,
              static_cast<long long>(min_self_ns), mid.run_s, mid.traced_s,
              digest_list(mid.digests).c_str());
  const char* sep = "";
  const auto put = [&sep](const char* key, double value) {
    std::printf("%s\"%s\":%.9g", sep, key, value);
    sep = ",";
  };
  put("sim.events", static_cast<double>(c.events));
  put("sim.dispatch_s", mid.dispatch_s);
  put("sim.loop_self_s", mid.loop_self_s);
  put("sim.eq_resizes", static_cast<double>(c.eq_resizes));
  put("sim.arena_mb",
      static_cast<double>(mid.max_arena_bytes) / (1024.0 * 1024.0));
  put("phy.frames_tx", static_cast<double>(c.frames_tx));
  put("phy.airtime_s", c.airtime_s);
  put("phy.freeze_s", mid.freeze_s);
  put("phy.freezes", static_cast<double>(c.freezes));
  put("phy.kernel_s", mid.kernel_s);
  put("phy.kernel_calls", static_cast<double>(c.kernel_calls));
  put("phy.rx_per_frame", ratio(static_cast<double>(c.rx_upcalls),
                                static_cast<double>(c.frames_tx)));
  put("mac.sends", static_cast<double>(c.mac_sends));
  put("mac.send_self_s", seam(Seam::kMacSend));
  put("mac.ack_ratio", ratio(static_cast<double>(c.unicast_acked),
                             static_cast<double>(c.unicast_results)));
  put("mac_phy.self_s", mid.mac_phy_self_s);
  put("net.rx_upcalls", static_cast<double>(c.rx_upcalls));
  put("net.rx_self_s", seam(Seam::kNetRx));
  put("net.send_done_self_s", seam(Seam::kNetSendDone));
  put("net.compare_calls", static_cast<double>(c.compare_calls));
  put("net.compare_self_s", seam(Seam::kNetCompare));
  put("net.delivery_ratio", mid.delivery);
  put("net.cost", mid.cost);
  put("net.parent_changes", static_cast<double>(mid.parent_changes));
  put("estimator.self_s", seam(Seam::kEstimator));
  put("estimator.etx_calls", static_cast<double>(c.etx_calls));
  put("estimator.unwrap_calls", static_cast<double>(c.unwrap_calls));
  put("estimator.wrap_calls", static_cast<double>(c.wrap_calls));
  put("estimator.unicast_results", static_cast<double>(c.unicast_results));
  put("topology.gen_s", mid.topology_s);
  put("setup.stack_s", mid.stack_s);
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench_tool: built without NDEBUG; timings from a "
               "debug build are not benchmark results\n");
  return 3;
#endif
  if (argc < 2) usage(
      "expected a subcommand: info|calibrate|campaign|identity|traced");
  // The subcommand stays in argv: the pool's workers re-exec argv as is.
  const std::string cmd = argv[1];
  if (cmd == "info") return cmd_info();
  if (cmd == "calibrate") return cmd_calibrate();
  if (cmd == "campaign") return cmd_campaign(argc, argv);
  if (cmd == "identity") return cmd_identity(argc, argv);
  if (cmd == "traced") return cmd_traced(argc, argv);
  usage("unknown subcommand");
}
