#include "runner/campaign.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "runner/supervisor.hpp"

namespace fourbit::runner {

std::vector<ExperimentConfig> Campaign::seed_sweep(
    const ExperimentConfig& base, std::size_t n) {
  std::vector<ExperimentConfig> trials;
  trials.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trials.push_back(base);
    trials.back().seed = base.seed + i;
  }
  return trials;
}

namespace {

/// Shared aggregation core for both summarize overloads.
CampaignSummary summarize_results(
    const std::vector<const ExperimentResult*>& results) {
  std::vector<double> cost, delivery, depth, churn, outage_dlv, reroute;
  cost.reserve(results.size());
  delivery.reserve(results.size());
  depth.reserve(results.size());
  churn.reserve(results.size());
  for (const auto* r : results) {
    cost.push_back(r->cost);
    delivery.push_back(r->delivery_ratio);
    depth.push_back(r->mean_depth);
    churn.push_back(static_cast<double>(r->parent_changes));
    // Only faulted trials carry recovery samples; pooling zeros from
    // fault-free trials would fabricate a perfect-failure signal.
    if (r->generated_during_outage > 0) {
      outage_dlv.push_back(r->delivery_during_outage);
    }
    if (r->max_time_to_reroute_s > 0.0) {
      reroute.push_back(r->mean_time_to_reroute_s);
    }
  }
  CampaignSummary summary{
      .cost = stats::Aggregate::of(std::move(cost)),
      .delivery_ratio = stats::Aggregate::of(std::move(delivery)),
      .mean_depth = stats::Aggregate::of(std::move(depth)),
      .parent_changes = stats::Aggregate::of(std::move(churn)),
      .delivery_during_outage = stats::Aggregate::of(std::move(outage_dlv)),
      .time_to_reroute_s = stats::Aggregate::of(std::move(reroute)),
  };
  summary.completed = results.size();
  return summary;
}

}  // namespace

CampaignSummary summarize(const std::vector<ExperimentResult>& results) {
  std::vector<const ExperimentResult*> ptrs;
  ptrs.reserve(results.size());
  for (const auto& r : results) ptrs.push_back(&r);
  CampaignSummary summary = summarize_results(ptrs);
  summary.trials = results.size();
  summary.attempts = results.size();
  return summary;
}

CampaignSummary summarize(const CampaignReport& report) {
  std::vector<const ExperimentResult*> ptrs;
  ptrs.reserve(report.results.size());
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    if (report.completed[i]) ptrs.push_back(&report.results[i]);
  }
  CampaignSummary summary = summarize_results(ptrs);
  summary.trials = report.results.size();
  summary.attempts = report.attempts;
  summary.retries = report.retries;
  summary.replayed = report.replayed;
  summary.worker_respawns = report.worker_respawns;
  summary.host_losses = report.host_losses;
  summary.lease_reassignments = report.lease_reassignments;
  for (const auto& failure : report.failures) {
    summary.failures_by_kind[static_cast<std::size_t>(failure.kind)]++;
  }
  return summary;
}

std::vector<double> pooled_per_node_delivery(
    const std::vector<ExperimentResult>& results) {
  std::vector<double> pooled;
  for (const auto& r : results) {
    pooled.insert(pooled.end(), r.per_node_delivery.begin(),
                  r.per_node_delivery.end());
  }
  return pooled;
}

namespace {

[[noreturn]] void flag_usage_error(const char* name, const char* detail,
                                   const char* got) {
  if (got != nullptr) {
    std::fprintf(stderr, "error: %s %s (got \"%s\")\n", name, detail, got);
  } else {
    std::fprintf(stderr, "error: %s %s\n", name, detail);
  }
  std::exit(2);
}

}  // namespace

std::optional<std::string> consume_flag(int& argc, char** argv,
                                        const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) != 0) continue;
    if (i + 1 >= argc) {
      flag_usage_error(name, "expects a value", nullptr);
    }
    std::string value = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    return value;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> consume_uint_flag(int& argc, char** argv,
                                               const char* name) {
  const auto value = consume_flag(argc, argv, name);
  if (!value) return std::nullopt;
  // strtoul accepts leading whitespace and a sign; neither is a sane
  // thread/millisecond count, so reject them explicitly along with
  // trailing junk, empty strings and overflow.
  const char* text = value->c_str();
  if (*text == '\0' || !std::isdigit(static_cast<unsigned char>(*text))) {
    flag_usage_error(name, "expects a non-negative integer", text);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') {
    flag_usage_error(name, "expects a non-negative integer", text);
  }
  return static_cast<std::uint64_t>(parsed);
}

bool consume_bool_flag(int& argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) != 0) continue;
    for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
    argc -= 1;
    return true;
  }
  return false;
}

std::size_t consume_threads_flag(int& argc, char** argv) {
  return static_cast<std::size_t>(
      consume_uint_flag(argc, argv, "--threads").value_or(0));
}

std::function<void(const TrialProgress&)> stderr_progress() {
  struct State {
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    bool tty = ::isatty(::fileno(stderr)) != 0;
  };
  auto state = std::make_shared<State>();
  return [state](const TrialProgress& p) {
    char counts[96] = "";
    if (p.failed > 0 || p.retried > 0) {
      std::snprintf(counts, sizeof counts, ", %zu failed, %zu retried",
                    p.failed, p.retried);
    }
    // Terminal failures are worth a full line in either mode; the \r
    // ticker would otherwise overwrite them.
    if (p.failure != nullptr) {
      std::fprintf(stderr, "%s  trial %zu (seed %llu) failed [%s]: %s\n",
                   state->tty ? "\n" : "", p.failure->trial_index,
                   static_cast<unsigned long long>(p.failure->seed),
                   std::string{failure_kind_name(p.failure->kind)}.c_str(),
                   p.failure->what.c_str());
    }
    if (state->tty) {
      // Live ticker: counts plus throughput, ETA, and (once nonzero)
      // fleet health. Trailing spaces wipe leftovers from a previously
      // longer line under \r.
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        state->start)
              .count();
      const double rate =
          elapsed_s > 0.0 ? static_cast<double>(p.completed) / elapsed_s
                          : 0.0;
      char pace[64] = "";
      if (rate > 0.0 && p.completed < p.total) {
        std::snprintf(pace, sizeof pace, " [%.1f/s, ETA %.0fs]", rate,
                      static_cast<double>(p.total - p.completed) / rate);
      } else if (rate > 0.0) {
        std::snprintf(pace, sizeof pace, " [%.1f/s]", rate);
      }
      char fleet[64] = "";
      if (p.host_losses > 0 || p.lease_reassignments > 0) {
        std::snprintf(fleet, sizeof fleet,
                      ", %zu host losses, %zu leases moved", p.host_losses,
                      p.lease_reassignments);
      }
      std::fprintf(stderr, "\r  %zu/%zu trials%s%s%s   %s", p.completed,
                   p.total, counts, fleet, pace,
                   p.completed == p.total ? "\n" : "");
      std::fflush(stderr);
      return;
    }
    // Non-TTY (CI logs): a \r ticker would interleave with trial log
    // lines into one unreadable mega-line. Print a complete line every
    // ~5% instead, with percent and a wall-clock ETA.
    const std::size_t step = std::max<std::size_t>(1, p.total / 20);
    if (p.completed % step != 0 && p.completed != p.total) return;
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      state->start)
            .count();
    const double eta_s =
        p.completed > 0 ? elapsed_s * static_cast<double>(p.total -
                                                          p.completed) /
                              static_cast<double>(p.completed)
                        : 0.0;
    std::fprintf(stderr, "  %zu/%zu trials (%.0f%%, ETA %.0fs%s)\n",
                 p.completed, p.total,
                 100.0 * static_cast<double>(p.completed) /
                     static_cast<double>(p.total),
                 eta_s, counts);
    std::fflush(stderr);
  };
}

}  // namespace fourbit::runner
