#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"

namespace mci::sim {

void Welford::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Welford::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Welford::stddev() const { return std::sqrt(variance()); }

void TimeWeighted::set(double value, SimTime now) {
  MCI_DCHECK(now >= lastChange_);
  weightedSum_ += value_ * (now - lastChange_);
  value_ = value;
  lastChange_ = now;
}

double TimeWeighted::average(SimTime now) const {
  const SimTime span = now - start_;
  if (span <= 0) return value_;
  const double total = weightedSum_ + value_ * (now - lastChange_);
  return total / span;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), bins_(bins, 0) {
  MCI_DCHECK(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  auto idx = static_cast<std::int64_t>((x - lo_) / width_);
  idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(bins_.size()) - 1);
  ++bins_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::binLow(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }
double Histogram::binHigh(std::size_t i) const { return binLow(i) + width_; }

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double next = cum + static_cast<double>(bins_[i]);
    if (next >= target) {
      const double frac = bins_[i] ? (target - cum) / static_cast<double>(bins_[i]) : 0.0;
      return binLow(i) + frac * width_;
    }
    cum = next;
  }
  return hi_;
}

}  // namespace mci::sim
