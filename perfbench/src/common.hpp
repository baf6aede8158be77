#pragma once
// Shared pieces of the repository benchmark: options, the result record,
// statistics helpers, span recording into an obs::TraceSession, and the
// timing decorator around KScheduler::allot.
//
// Every number here is measured from the benchmark's own code, around calls
// into the public API of exp / runtime / svc; nothing inside src/ is
// instrumented.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/trace_event.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Untimed warm-up before anything is timed (see README "Cold start").
inline constexpr double kWarmupSeconds = 1.5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed window.
  double seconds = 10.0;
  /// --trace 1.  The workloads see it as a non-null TraceSession.
  bool trace = false;
  /// Directory for the serve journal; created if missing.
  std::string scratch_dir = ".bench_build/perfbench/scratch";
  /// Where a traced run writes its spans (Chrome trace JSON); empty = none.
  std::string trace_out;
};

/// One workload run.  `end_to_end` / `per_layer` hold values in the units
/// listed in main.cpp; `counts` holds the exact, seed-determined counts the
/// tests compare between runs and between traced and untraced modes.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// False when an output check failed (the process then exits non-zero).
  bool correct = true;
  std::vector<std::string> errors;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, double> counts;
  /// Ops per second of the untimed warm-up (a diagnostic, not a metric).
  double warmup_ops_per_s = 0.0;

  void fail(const std::string& message);
};

double seconds_between(Clock::time_point a, Clock::time_point b);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Hypervisor steal and total CPU ticks of the host (all vCPUs), from
/// /proc/stat; zeros when it cannot be read.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks host_cpu_ticks();
/// Share of the host's CPU ticks from `a` to `b` that the hypervisor stole.
double steal_share(const CpuTicks& a, const CpuTicks& b);

/// Op latencies of the timed window, grouped into consecutive slices (one
/// campaign sweep or one executor batch run), with each slice's op count,
/// length and host steal share.
/// On a shared host, hypervisor steal comes in bursts that slow down
/// whatever part of the window they land in.  The medians below are taken
/// over the calm slices — steal share at most kCalmSteal — or over every
/// slice when fewer than kMinCalmSlices are calm.  A burst that leaves some
/// slices calm does not move them; a change that slows ops in every slice
/// moves them fully.  See README "Statistics".
class SlicedSamples {
 public:
  void add(double latency) { current_.push_back(latency); }
  /// End the current slice: `ops` ops completed in `seconds`.
  void close_slice(double ops, double seconds);
  /// End the window: a trailing partial slice (`ops` in `seconds`) is
  /// folded into the last whole one.
  void finish(double ops, double seconds);
  /// q-quantile over every latency of the window.
  double window_quantile(double q) const;
  /// Median over calm slices of the slice's latency q-quantile.
  double slice_median(double q) const;
  /// Median over calm slices of the slice's ops per second.
  double median_rate() const;

  /// A slice is calm when the hypervisor stole at most this share of the
  /// host's CPU ticks during it (a disturbed slice shows 4-16%).
  static constexpr double kCalmSteal = 0.01;
  static constexpr std::size_t kMinCalmSlices = 5;

 private:
  struct Slice {
    std::vector<double> latency;
    double ops = 0.0;
    double seconds = 0.0;
    double steal = 0.0;  // steal_share over the slice
  };
  std::vector<const Slice*> calm_slices() const;

  std::vector<Slice> slices_;
  std::vector<double> current_;
  CpuTicks slice_start_ = host_cpu_ticks();
};

/// User + system CPU seconds of the whole process.
double process_cpu_seconds();
/// Peak resident set size of the process image so far, in MB.  Workloads
/// read it at the end of the timed window, before teardown.
double peak_rss_mb();

/// Streaming FNV-1a 64 over byte strings (output digests).
class Digest {
 public:
  void add(const std::string& bytes);
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Record [start, end) as a span named `name` in `trace`; a no-op when
/// `trace` is null (untraced runs).
void add_span(krad::obs::TraceSession* trace, const char* name,
              Clock::time_point start, Clock::time_point end,
              krad::obs::NumArgs args = {});

/// Timing decorator around KScheduler::allot.  Every other hook —
/// reset, set_capacity, clairvoyant, steady_horizon, note_steady_steps,
/// name — is forwarded unchanged, so a decorated run makes exactly the
/// scheduling decisions of an undecorated one.
class TimedScheduler final : public krad::KScheduler {
 public:
  explicit TimedScheduler(krad::KScheduler& inner) : inner_(inner) {}

  void reset(const krad::MachineConfig& machine,
             std::size_t num_jobs) override {
    inner_.reset(machine, num_jobs);
  }
  void allot(krad::Time now, std::span<const krad::JobView> active,
             const krad::ClairvoyantView* clair,
             krad::Allotment& out) override;
  void set_capacity(const krad::MachineConfig& effective) override {
    inner_.set_capacity(effective);
  }
  bool clairvoyant() const override { return inner_.clairvoyant(); }
  krad::Time steady_horizon() const override { return inner_.steady_horizon(); }
  void note_steady_steps(krad::Time steps) override {
    inner_.note_steady_steps(steps);
  }
  std::string name() const override { return inner_.name(); }

  std::int64_t calls() const noexcept { return calls_; }
  double total_seconds() const noexcept { return total_seconds_; }

 private:
  krad::KScheduler& inner_;
  std::int64_t calls_ = 0;
  double total_seconds_ = 0.0;
};

/// The three workloads.  Each runs an untimed warm-up, measures set-up,
/// then runs the timed window; see README.md for what each one measures.
/// `trace` is null in an untraced run.
Result run_campaign_workload(const Options& options,
                             krad::obs::TraceSession* trace);
Result run_executor_workload(const Options& options,
                             krad::obs::TraceSession* trace);
Result run_serve_workload(const Options& options,
                          krad::obs::TraceSession* trace);

Result run_workload(const Options& options, krad::obs::TraceSession* trace);

}  // namespace perfbench
