// `campaign` workload: repeated exp::run_campaign sweeps of one fixed
// SweepSpec — the paper's reproduction path (Theorem 3 ratio checks).  It
// exercises workload / bounds / sim / exp and bypasses runtime and svc.
//
// One op is one campaign run (one RunPoint: generate, bound, simulate).

#include <algorithm>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "exp/runner.hpp"
#include "exp/standard_run.hpp"

namespace perfbench {
namespace {

krad::exp::SweepSpec campaign_spec(std::uint64_t seed) {
  krad::exp::SweepSpec spec;
  spec.name = "perfbench";
  spec.schedulers = {"krad", "kequi", "kdeq"};
  spec.k_values = {2, 3};
  spec.procs_per_cat = {4, 8};
  spec.job_counts = {16, 32};
  spec.arrivals = {krad::exp::ArrivalPattern::kBatched,
                   krad::exp::ArrivalPattern::kPoisson};
  spec.shapes = {krad::DagShape::kMixed};
  spec.family = krad::exp::JobFamily::kDag;
  spec.dag_params.min_size = 16;
  spec.dag_params.max_size = 128;
  spec.trials = 40;  // 48 cells x 40 trials = 1920 runs per sweep
  spec.base_seed = seed;
  return spec;
}

// One set-up sample times this many SweepSpec::expand calls: one call
// (~0.7 ms) is too short to time steadily.
constexpr int kExpandsPerSample = 20;

struct SweepOutcome {
  std::size_t runs = 0;
  std::size_t over_bound = 0;
  std::uint64_t digest = 0;
  krad::Time busy_steps = 0;
  krad::exp::CampaignResult campaign;  // its timing fields; records dropped
  double call_seconds = 0.0;           // wall time of the run_campaign call
  double cpu_seconds = 0.0;            // process CPU time during the call
};

}  // namespace

Result run_campaign_workload(const Options& options,
                             krad::obs::TraceSession* trace) {
  const krad::exp::SweepSpec spec = campaign_spec(options.seed);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());

  // Per-run wall times of the current sweep, from a run hook around
  // standard_run.
  std::mutex samples_mu;
  std::vector<double> run_seconds;
  std::uint64_t sweep_id = 0;

  krad::exp::CampaignOptions campaign_options;
  campaign_options.threads = threads;
  campaign_options.run = [&](const krad::exp::RunPoint& point) {
    const auto start = Clock::now();
    krad::exp::RunRecord record = krad::exp::standard_run(point);
    const auto end = Clock::now();
    add_span(trace, "exp.standard_run", start, end,
             {{"sweep", static_cast<double>(sweep_id)},
              {"seed", static_cast<double>(point.seed)}});
    const std::lock_guard<std::mutex> lock(samples_mu);
    run_seconds.push_back(seconds_between(start, end));
    return record;
  };

  const auto sweep = [&] {
    ++sweep_id;
    SweepOutcome out;
    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    out.campaign = krad::exp::run_campaign(spec, campaign_options);
    const auto end = Clock::now();
    out.cpu_seconds = process_cpu_seconds() - cpu_start;
    out.call_seconds = seconds_between(start, end);
    add_span(trace, "exp.run_campaign", start, end,
             {{"sweep", static_cast<double>(sweep_id)}});
    out.runs = out.campaign.records.size();
    Digest digest;
    for (const krad::exp::RunRecord& record : out.campaign.records) {
      digest.add(record.to_jsonl());
      if (record.ratio > record.bound + 1e-9) ++out.over_bound;
      out.busy_steps += record.busy_steps;
    }
    out.digest = digest.value();
    out.campaign.records.clear();
    return out;
  };

  Result result;

  // Warm-up: whole sweeps on every shard thread.  Its first sweep is the
  // digest reference every later sweep must reproduce.
  const auto warm_start = Clock::now();
  const SweepOutcome reference = sweep();
  std::size_t warm_runs = reference.runs;
  while (seconds_between(warm_start, Clock::now()) < kWarmupSeconds)
    warm_runs += sweep().runs;
  result.warmup_ops_per_s =
      static_cast<double>(warm_runs) /
      seconds_between(warm_start, Clock::now());
  if (reference.over_bound > 0)
    result.fail("campaign run ratio above its Theorem 3 bound");

  // Set-up: expanding the spec into its run list, timed after every sweep
  // of the window so that the median spans the window.
  std::vector<double> setup_seconds;
  const auto time_setup = [&] {
    const auto start = Clock::now();
    for (int j = 0; j < kExpandsPerSample; ++j) {
      const std::vector<krad::exp::RunPoint> points = spec.expand();
      if (points.size() != reference.runs)
        result.fail("expand() size differs from the executed run count");
    }
    setup_seconds.push_back(seconds_between(start, Clock::now()) /
                            kExpandsPerSample);
  };

  // Timed window: whole sweeps until the window is used up.  Each sweep is
  // one slice; ops_per_s and cpu_us_per_op count the run_campaign calls
  // only, not the checks and set-up samples between them.
  SlicedSamples slices;
  std::size_t runs = 0;
  double cpu = 0.0;            // Σ CPU during the calls
  double wall_seconds = 0.0;   // Σ CampaignResult::wall_seconds
  double shard_seconds = 0.0;  // Σ CampaignResult::shard_seconds
  double setup_total = 0.0;    // Σ RunRecord::setup_seconds
  double sim_total = 0.0;      // Σ RunRecord::sim_seconds
  const auto window_start = Clock::now();
  do {
    run_seconds.clear();
    const SweepOutcome out = sweep();
    for (const double seconds : run_seconds) slices.add(seconds);
    slices.close_slice(static_cast<double>(out.runs), out.call_seconds);
    runs += out.runs;
    cpu += out.cpu_seconds;
    wall_seconds += out.campaign.wall_seconds;
    shard_seconds += out.campaign.shard_seconds;
    setup_total += out.campaign.setup_seconds;
    sim_total += out.campaign.sim_seconds;
    result.attempted += static_cast<std::int64_t>(out.runs);
    if (out.digest != reference.digest) {
      result.failed += static_cast<std::int64_t>(out.runs);
      result.fail("campaign records differ between sweeps of one seed");
    } else if (out.over_bound > 0) {
      result.failed += static_cast<std::int64_t>(out.over_bound);
      result.fail("campaign run ratio above its Theorem 3 bound");
    }
    time_setup();
  } while (seconds_between(window_start, Clock::now()) < options.seconds);
  result.end_to_end["peak_rss_mb"] = peak_rss_mb();

  const auto n = static_cast<double>(runs);
  result.end_to_end["ops_per_s"] = slices.median_rate();
  result.end_to_end["cpu_us_per_op"] = cpu * 1e6 / n;
  result.end_to_end["latency_p50_ms"] = slices.slice_median(0.50) * 1e3;
  result.end_to_end["latency_p99_ms"] = slices.slice_median(0.99) * 1e3;
  result.end_to_end["setup_s"] = quantile(setup_seconds, 0.5);

  result.per_layer["exp.shard_busy_share"] =
      shard_seconds / (static_cast<double>(threads) * wall_seconds);
  result.per_layer["exp.run_us_p50"] = slices.window_quantile(0.50) * 1e6;
  result.per_layer["exp.setup_us_per_run"] = setup_total * 1e6 / n;
  result.per_layer["sim.simulate_us_per_run"] = sim_total * 1e6 / n;
  result.per_layer["sim.busy_steps_per_run"] =
      static_cast<double>(reference.busy_steps) /
      static_cast<double>(reference.runs);

  result.counts["exp.runs_per_sweep"] = static_cast<double>(reference.runs);
  result.counts["sim.busy_steps_per_sweep"] =
      static_cast<double>(reference.busy_steps);
  result.counts["exp.digest_hi"] =
      static_cast<double>(reference.digest >> 32);
  result.counts["exp.digest_lo"] =
      static_cast<double>(reference.digest & 0xffffffffULL);
  return result;
}

}  // namespace perfbench
