#include "testlen/test_length.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

namespace protest {
namespace {

/// log(1-p) per fault (read only where p is in (0,1), or NaN).
std::vector<double> miss_logs(std::span<const double> probs) {
  std::vector<double> lg(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) lg[i] = std::log1p(-probs[i]);
  return lg;
}

/// P_F(n) computed in log space, with lg = miss_logs(probs).  A fault
/// with p == 0 makes it 0.  Terms equal to log(1) — p == 1, or (1-p)^n
/// underflowing — are skipped: the sum starts at +0 and only ever adds
/// non-positive terms, so adding +0 could not change it.
double detection_prob(std::span<const double> probs,
                      std::span<const double> lg, std::uint64_t n) {
  const double nd = static_cast<double>(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (probs[i] <= 0.0) return 0.0;
    if (probs[i] >= 1.0) continue;
    // (1-p)^n = exp(n log(1-p)); for tiny exponents use log1p(-x) directly.
    const double miss_log = nd * lg[i];
    if (miss_log < -745.0) continue;
    const double t = std::log1p(-std::exp(miss_log));
    if (t == -std::numeric_limits<double>::infinity()) return 0.0;
    acc += t;
  }
  return std::exp(acc);
}

/// |F_d| for a list of `faults`: at least one fault (none of none).
std::size_t fraction_size(std::size_t faults, double d) {
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(d * static_cast<double>(faults) - 1e-9)));
  return std::min(keep, faults);
}

void check_d(double d, const char* who) {
  if (!(d > 0.0 && d <= 1.0))
    throw std::invalid_argument(std::string(who) + ": d must be in (0,1]");
}

std::vector<double> sorted_descending(std::span<const double> probs) {
  std::vector<double> sorted(probs.begin(), probs.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>{});
  return sorted;
}

/// Smallest N with reaches(N), kInfiniteTestLength past 2^62:
/// exponential bracketing + binary search on the monotone predicate.
template <class Reaches>
std::uint64_t smallest_reaching(const Reaches& reaches) {
  std::uint64_t hi = 1;
  const std::uint64_t cap = std::uint64_t{1} << 62;
  while (!reaches(hi)) {
    if (hi >= cap) return kInfiniteTestLength;
    hi *= 2;
  }
  std::uint64_t lo = hi / 2;  // reaches(lo) is false (or lo == 0)
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (reaches(mid))
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

}  // namespace

double set_detection_prob(std::span<const double> detection_probs,
                          std::uint64_t n) {
  return detection_prob(detection_probs, miss_logs(detection_probs), n);
}

double expected_coverage(std::span<const double> detection_probs,
                         std::uint64_t n) {
  if (detection_probs.empty()) return 1.0;
  double acc = 0.0;
  for (double p : detection_probs) {
    if (p <= 0.0) continue;
    if (p >= 1.0) {
      acc += 1.0;
      continue;
    }
    const double miss_log = static_cast<double>(n) * std::log1p(-p);
    acc += 1.0 - std::exp(miss_log);
  }
  return acc / static_cast<double>(detection_probs.size());
}

std::vector<double> easiest_fraction(std::span<const double> detection_probs,
                                     double d) {
  check_d(d, "easiest_fraction");
  std::vector<double> sorted = sorted_descending(detection_probs);
  sorted.resize(fraction_size(sorted.size(), d));
  return sorted;
}

std::vector<std::uint64_t> required_test_lengths(
    std::span<const double> detection_probs, std::span<const double> d_grid,
    std::span<const double> e_grid) {
  for (const double d : d_grid) check_d(d, "required_test_lengths");
  for (const double e : e_grid)
    if (!(e > 0.0 && e < 1.0))
      throw std::invalid_argument(
          "required_test_lengths: e must be in (0,1)");

  const std::vector<double> sorted = sorted_descending(detection_probs);
  const std::vector<double> lg = miss_logs(sorted);
  std::vector<std::uint64_t> lengths;
  lengths.reserve(d_grid.size() * e_grid.size());
  std::map<std::uint64_t, double> memo;  // P_{F_d}(N) of the current d
  for (const double d : d_grid) {
    const std::size_t k = fraction_size(sorted.size(), d);
    const auto fd = std::span<const double>(sorted).first(k);
    const auto fd_lg = std::span<const double>(lg).first(k);
    memo.clear();
    auto prob = [&](std::uint64_t n) {
      const auto [it, fresh] = memo.try_emplace(n);
      if (fresh) it->second = detection_prob(fd, fd_lg, n);
      return it->second;
    };
    for (const double e : e_grid) {
      if (fd.empty())
        lengths.push_back(1);
      else if (fd.back() <= 0.0)
        lengths.push_back(kInfiniteTestLength);
      else
        lengths.push_back(
            smallest_reaching([&](std::uint64_t n) { return prob(n) >= e; }));
    }
  }
  return lengths;
}

std::uint64_t required_test_length(std::span<const double> detection_probs,
                                   double d, double e) {
  return required_test_lengths(detection_probs, {&d, 1}, {&e, 1}).front();
}

}  // namespace protest
