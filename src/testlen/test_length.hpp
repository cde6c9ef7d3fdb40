// Random test length computation (sect. 5, formula (3)):
//
//   P_F = prod_{f in F} ( 1 - (1 - P_f)^N )
//
// the probability that N random patterns detect every fault in F, assuming
// statistically independent detection.  PROTEST solves the inverse problem:
// the smallest N reaching confidence e, optionally restricted to F_d — the
// d*100% faults with the highest detection probabilities.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace protest {

/// Returned when no finite pattern count can reach the confidence (some
/// fault in F_d has detection probability 0).
inline constexpr std::uint64_t kInfiniteTestLength =
    std::numeric_limits<std::uint64_t>::max();

/// P_F for a given N (formula (3)), computed in log space.
double set_detection_prob(std::span<const double> detection_probs,
                          std::uint64_t n);

/// Expected stuck-at coverage after n patterns: mean_f (1 - (1-P_f)^n).
double expected_coverage(std::span<const double> detection_probs,
                         std::uint64_t n);

/// The d*100% easiest faults of the list (descending detection
/// probability), d in (0,1].
std::vector<double> easiest_fraction(std::span<const double> detection_probs,
                                     double d);

/// Smallest N with P_{F_d} >= e (the paper's Table 2/3/5 quantity) for
/// every (d, e) of the grid, row-major: element i * e_grid.size() + j is
/// the (d_grid[i], e_grid[j]) point.  kInfiniteTestLength marks an
/// unreachable point.  Every d must be in (0,1] and every e in (0,1);
/// the whole grid is validated before any search runs.  The list is
/// sorted once and each F_d is a prefix of it; the points of one d share
/// their P_{F_d}(N) probes.
std::vector<std::uint64_t> required_test_lengths(
    std::span<const double> detection_probs, std::span<const double> d_grid,
    std::span<const double> e_grid);

/// The 1 x 1 grid: smallest N with P_{F_d} >= e.
std::uint64_t required_test_length(std::span<const double> detection_probs,
                                   double d, double e);

}  // namespace protest
