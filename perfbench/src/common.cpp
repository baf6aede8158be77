#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace perfbench {

void Result::fail(const std::string& message) {
  correct = false;
  if (errors.size() < 20) errors.push_back(message);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

CpuTicks host_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) return CpuTicks{};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const double total = b.total - a.total;
  return total > 0.0 ? (b.steal - a.steal) / total : 0.0;
}

void SlicedSamples::close_slice(double ops, double seconds) {
  const CpuTicks now = host_cpu_ticks();
  slices_.push_back(
      Slice{std::move(current_), ops, seconds, steal_share(slice_start_, now)});
  slice_start_ = now;
  current_.clear();
}

void SlicedSamples::finish(double ops, double seconds) {
  if (slices_.empty()) return close_slice(ops, seconds);
  Slice& last = slices_.back();
  last.latency.insert(last.latency.end(), current_.begin(), current_.end());
  last.ops += ops;
  last.seconds += seconds;
  current_.clear();
}

double SlicedSamples::window_quantile(double q) const {
  std::vector<double> all;
  for (const Slice& slice : slices_)
    all.insert(all.end(), slice.latency.begin(), slice.latency.end());
  return quantile(std::move(all), q);
}

std::vector<const SlicedSamples::Slice*> SlicedSamples::calm_slices() const {
  std::vector<const Slice*> calm;
  for (const Slice& slice : slices_)
    if (slice.steal <= kCalmSteal) calm.push_back(&slice);
  if (calm.size() < kMinCalmSlices) {
    calm.clear();
    for (const Slice& slice : slices_) calm.push_back(&slice);
  }
  return calm;
}

double SlicedSamples::slice_median(double q) const {
  std::vector<double> per_slice;
  for (const Slice* slice : calm_slices())
    if (!slice->latency.empty())
      per_slice.push_back(quantile(slice->latency, q));
  return quantile(std::move(per_slice), 0.5);
}

double SlicedSamples::median_rate() const {
  std::vector<double> per_slice;
  for (const Slice* slice : calm_slices())
    if (slice->seconds > 0.0) per_slice.push_back(slice->ops / slice->seconds);
  return quantile(std::move(per_slice), 0.5);
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so under
  // a launcher it reports the launcher's footprint when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Digest::add(const std::string& bytes) {
  for (const unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 1099511628211ULL;
  }
  hash_ ^= 0xff;  // record separator
  hash_ *= 1099511628211ULL;
}

void add_span(krad::obs::TraceSession* trace, const char* name,
              Clock::time_point start, Clock::time_point end,
              krad::obs::NumArgs args) {
  if (trace == nullptr) return;
  // The session's clock is its own steady_clock epoch: place the span by
  // its distance from now.
  const double start_us =
      trace->now_us() - seconds_between(start, Clock::now()) * 1e6;
  trace->complete(name, "perfbench", start_us,
                  seconds_between(start, end) * 1e6, std::move(args));
}

void TimedScheduler::allot(krad::Time now,
                           std::span<const krad::JobView> active,
                           const krad::ClairvoyantView* clair,
                           krad::Allotment& out) {
  const auto start = Clock::now();
  inner_.allot(now, active, clair, out);
  const auto end = Clock::now();
  ++calls_;
  total_seconds_ += seconds_between(start, end);
}

Result run_workload(const Options& options, krad::obs::TraceSession* trace) {
  if (options.workload == "campaign")
    return run_campaign_workload(options, trace);
  if (options.workload == "executor")
    return run_executor_workload(options, trace);
  if (options.workload == "serve") return run_serve_workload(options, trace);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
