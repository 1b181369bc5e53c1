#include "src/util/sliding_window.h"

#include <algorithm>

namespace pileus {

void SlidingWindow::Record(MicrosecondCount now_us,
                           MicrosecondCount value_us) {
  EvictExpired(now_us);
  samples_.push_back(Sample{now_us, value_us});
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value_us),
                 value_us);
  sum_ += value_us;
  while (samples_.size() > options_.max_samples) {
    PopOldest();
  }
}

void SlidingWindow::PopOldest() const {
  const MicrosecondCount value = samples_.front().value_us;
  samples_.pop_front();
  // Equal values are interchangeable, so erase the last copy: it sits just
  // before upper_bound and leaves the fewest elements to shift.
  sorted_.erase(std::upper_bound(sorted_.begin(), sorted_.end(), value) - 1);
  sum_ -= value;
}

void SlidingWindow::EvictExpired(MicrosecondCount now_us) const {
  const MicrosecondCount cutoff = now_us - options_.window_us;
  while (!samples_.empty() && samples_.front().at_us < cutoff) {
    PopOldest();
  }
}

double SlidingWindow::FractionBelow(MicrosecondCount now_us,
                                    MicrosecondCount threshold_us,
                                    double empty_estimate) const {
  EvictExpired(now_us);
  if (sorted_.empty()) {
    return empty_estimate;
  }
  const size_t below = static_cast<size_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), threshold_us) -
      sorted_.begin());
  return static_cast<double>(below) / static_cast<double>(sorted_.size());
}

MicrosecondCount SlidingWindow::Mean(MicrosecondCount now_us) const {
  EvictExpired(now_us);
  if (sorted_.empty()) {
    return 0;
  }
  return sum_ / static_cast<MicrosecondCount>(sorted_.size());
}

MicrosecondCount SlidingWindow::Quantile(MicrosecondCount now_us,
                                         double q) const {
  EvictExpired(now_us);
  if (sorted_.empty()) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const size_t rank = std::min(
      sorted_.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_.size())));
  return sorted_[rank];
}

size_t SlidingWindow::SampleCount(MicrosecondCount now_us) const {
  EvictExpired(now_us);
  return samples_.size();
}

void SlidingWindow::Clear() {
  samples_.clear();
  sorted_.clear();
  sum_ = 0;
}

}  // namespace pileus
