// Shared pieces of the end-to-end benchmark: the per-run report every path
// writes its metrics and check failures into, wall-clock helpers, and the
// order statistics the metrics are built from.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run prints: end-to-end metrics (untraced runs), per-layer
// metrics (traced runs), operation counts and the verdict of every check.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  // Records a failed check; the message goes to stderr.
  void fail(const std::string& message);
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// Keeps, per slot, the fastest of all repetitions timed into it: a batch of
// the request stream, a drift step, or a single timed unit (one slot).
class Fastest {
 public:
  explicit Fastest(std::size_t slots = 1) : best_(slots, -1.0) {}

  void record(std::size_t slot, double seconds) {
    double& b = best_.at(slot);
    if (b < 0.0 || seconds < b) b = seconds;
  }
  void record(double seconds) { record(0, seconds); }

  double best(std::size_t slot = 0) const { return best_.at(slot); }
  const std::vector<double>& all() const { return best_; }

 private:
  std::vector<double> best_;
};

// SplitMix64 stream: every input of the benchmark is drawn from one of
// these, seeded from --seed and a per-purpose salt.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Peak resident set of this process in MB (VmHWM).
double peak_rss_mb();

}  // namespace e2e
