// Test length computation — formula (3) of sect. 5 and its inverse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "testlen/test_length.hpp"

namespace protest {
namespace {

TEST(TestLength, SetDetectionProbMatchesClosedForm) {
  const double pf[] = {0.5, 0.25};
  // P_F(N) = (1 - 0.5^N)(1 - 0.75^N)
  for (std::uint64_t n : {1ull, 2ull, 10ull, 100ull}) {
    const double expect = (1 - std::pow(0.5, double(n))) *
                          (1 - std::pow(0.75, double(n)));
    EXPECT_NEAR(set_detection_prob(pf, n), expect, 1e-12) << n;
  }
}

TEST(TestLength, SetDetectionEdgeCases) {
  const double none[] = {0.0, 0.5};
  EXPECT_DOUBLE_EQ(set_detection_prob(none, 1000), 0.0);
  const double sure[] = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(set_detection_prob(sure, 1), 1.0);
  const double tiny[] = {1e-9};
  EXPECT_NEAR(set_detection_prob(tiny, 1), 1e-9, 1e-15);
}

TEST(TestLength, RequiredLengthSingleFault) {
  // One fault with p: N = ceil(log(1-e)/log(1-p)).
  const double pf[] = {0.1};
  const std::uint64_t n = required_test_length(pf, 1.0, 0.95);
  EXPECT_EQ(n, static_cast<std::uint64_t>(
                   std::ceil(std::log(0.05) / std::log(0.9))));
  // Verify minimality.
  EXPECT_GE(set_detection_prob(pf, n), 0.95);
  EXPECT_LT(set_detection_prob(pf, n - 1), 0.95);
}

TEST(TestLength, MonotoneInConfidence) {
  const double pf[] = {0.3, 0.02, 0.5};
  std::uint64_t prev = 0;
  for (double e : {0.5, 0.9, 0.95, 0.98, 0.999}) {
    const std::uint64_t n = required_test_length(pf, 1.0, e);
    EXPECT_GE(n, prev) << e;
    prev = n;
  }
}

TEST(TestLength, DroppingHardFaultsShortensTest) {
  // One resistant fault dominates N; d = 0.75 removes it (4 faults).
  const double pf[] = {0.5, 0.4, 0.3, 1e-6};
  const std::uint64_t full = required_test_length(pf, 1.0, 0.98);
  const std::uint64_t d75 = required_test_length(pf, 0.75, 0.98);
  EXPECT_GT(full, 1'000'000u);
  EXPECT_LT(d75, 100u);
}

TEST(TestLength, UndetectableMakesInfinite) {
  const double pf[] = {0.5, 0.0};
  EXPECT_EQ(required_test_length(pf, 1.0, 0.95), kInfiniteTestLength);
  // ...unless d excludes the undetectable fault.
  EXPECT_LT(required_test_length(pf, 0.5, 0.95), kInfiniteTestLength);
}

TEST(TestLength, EasiestFractionPicksDescending) {
  const double pf[] = {0.1, 0.9, 0.5, 0.7};
  const auto f50 = easiest_fraction(pf, 0.5);
  ASSERT_EQ(f50.size(), 2u);
  EXPECT_DOUBLE_EQ(f50[0], 0.9);
  EXPECT_DOUBLE_EQ(f50[1], 0.7);
  EXPECT_EQ(easiest_fraction(pf, 1.0).size(), 4u);
  // d so small that it still keeps one fault.
  EXPECT_EQ(easiest_fraction(pf, 0.01).size(), 1u);
}

TEST(TestLength, ExpectedCoverageMonotoneAndBounded) {
  const double pf[] = {0.5, 0.1, 0.01};
  double prev = 0.0;
  for (std::uint64_t n : {1ull, 10ull, 100ull, 1000ull, 100000ull}) {
    const double c = expected_coverage(pf, n);
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_NEAR(expected_coverage(pf, 1'000'000), 1.0, 1e-9);
  const double with_undet[] = {0.5, 0.0};
  EXPECT_NEAR(expected_coverage(with_undet, 1'000'000), 0.5, 1e-12);
}

TEST(TestLength, ValidatesArguments) {
  const double pf[] = {0.5};
  EXPECT_THROW(required_test_length(pf, 0.0, 0.95), std::invalid_argument);
  EXPECT_THROW(required_test_length(pf, 1.5, 0.95), std::invalid_argument);
  EXPECT_THROW(required_test_length(pf, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(required_test_length(pf, 1.0, 1.0), std::invalid_argument);
}

TEST(TestLength, PaperScaleResistantFaults) {
  // A COMP-like profile: equality-chain faults with p ~ 2^-24 need ~10^8
  // patterns, the Table 3 order of magnitude.
  const double pf[] = {0.5, 0.25, 5.96e-8};
  const std::uint64_t n = required_test_length(pf, 1.0, 0.95);
  EXPECT_GT(n, 10'000'000u);
  EXPECT_LT(n, 200'000'000u);
}

// --- grid differential -------------------------------------------------------
//
// The oracle is the original per-point search, kept here verbatim: sort
// the list for every (d, e) point, take log1p(-p) in every probe, and
// bracket + bisect from scratch.  required_test_lengths must return the
// same N at every point.

double oracle_log_term(double p, std::uint64_t n) {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return 0.0;
  const double miss_log = static_cast<double>(n) * std::log1p(-p);
  if (miss_log < -745.0) return 0.0;
  return std::log1p(-std::exp(miss_log));
}

double oracle_set_prob(const std::vector<double>& fd, std::uint64_t n) {
  double acc = 0.0;
  for (double p : fd) {
    const double t = oracle_log_term(p, n);
    if (t == -std::numeric_limits<double>::infinity()) return 0.0;
    acc += t;
  }
  return std::exp(acc);
}

std::uint64_t oracle_length(const std::vector<double>& probs, double d,
                            double e) {
  std::vector<double> fd = probs;
  std::sort(fd.begin(), fd.end(), std::greater<>{});
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(d * static_cast<double>(fd.size()) - 1e-9)));
  fd.resize(std::min(keep, fd.size()));
  if (fd.empty()) return 1;
  if (fd.back() <= 0.0) return kInfiniteTestLength;
  auto reaches = [&](std::uint64_t n) { return oracle_set_prob(fd, n) >= e; };
  std::uint64_t hi = 1;
  const std::uint64_t cap = std::uint64_t{1} << 62;
  while (!reaches(hi)) {
    if (hi >= cap) return kInfiniteTestLength;
    hi *= 2;
  }
  std::uint64_t lo = hi / 2;
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (reaches(mid))
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

void expect_grid_matches_oracle(const std::vector<double>& probs,
                                const std::vector<double>& ds,
                                const std::vector<double>& es) {
  const std::vector<std::uint64_t> got = required_test_lengths(probs, ds, es);
  ASSERT_EQ(got.size(), ds.size() * es.size());
  for (std::size_t i = 0; i < ds.size(); ++i)
    for (std::size_t j = 0; j < es.size(); ++j) {
      const std::uint64_t want = oracle_length(probs, ds[i], es[j]);
      EXPECT_EQ(got[i * es.size() + j], want)
          << "d=" << ds[i] << " e=" << es[j] << " faults=" << probs.size();
      EXPECT_EQ(required_test_length(probs, ds[i], es[j]), want);
    }
}

const std::vector<double> kDefaultD = {1.0, 0.98};
const std::vector<double> kDefaultE = {0.95, 0.98, 0.999};
const std::vector<double> kWideD = {1.0, 0.999, 0.98, 0.9, 0.75, 0.6, 0.5,
                                    0.25, 0.01};
const std::vector<double> kWideE = {1e-9, 0.5, 0.9, 0.95, 0.98, 0.999,
                                    0.999999, 1 - 1e-12};

TEST(TestLengthGrid, EdgeProfilesMatchThePerPointSearch) {
  const std::vector<std::vector<double>> profiles = {
      {},                                   // empty list: N = 1
      {0.0},                                // only undetectable
      {1.0},                                // only certain
      {1.0, 1.0, 0.5},                      // p = 1 terms are log(1)
      {0.5, 0.0, 0.25, 0.0},                // p = 0 past the d cut
      {0.5, 0.5, 0.5, 0.5, 0.1},            // ties at the d = 0.6 cut
      {0.3, 0.3, 0.3, 0.3, 0.3, 0.3},       // all tied
      {0.5, 1e-300},                        // tiny p: exp(n log1p(-p)) == 1
      {0.9, DBL_TRUE_MIN, DBL_MIN},         // subnormal p
      {0.5, 1e-17, 1e-16},                  // log1p(-p) == -p
      {0.5, 0.25, 5.96e-8},                 // resistant (Table 3 scale)
      {1.0 - 1e-16, 0.999999, 0.5},         // underflowing miss terms
  };
  for (const auto& probs : profiles) {
    expect_grid_matches_oracle(probs, kDefaultD, kDefaultE);
    expect_grid_matches_oracle(probs, kWideD, kWideE);
  }
  // Unreachable points come back as kInfiniteTestLength.
  const std::vector<std::uint64_t> n =
      required_test_lengths(std::vector<double>{0.5, 1e-300}, kDefaultD,
                            kDefaultE);
  EXPECT_EQ(n.front(), kInfiniteTestLength);
}

TEST(TestLengthGrid, SeededProfilesMatchThePerPointSearch) {
  std::mt19937_64 rng(1985);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t faults = 1 + rng() % 300;
    std::vector<double> probs(faults);
    for (double& p : probs) {
      const double u = static_cast<double>(rng() >> 11) * 0x1p-53;
      switch (rng() % 6) {
        case 0: p = 0.0; break;
        case 1: p = 1.0; break;
        case 2: p = std::ldexp(u, -static_cast<int>(rng() % 40)); break;
        case 3: p = std::round(u * 8) / 8; break;  // ties
        default: p = u;
      }
    }
    // Most profiles keep their zeros beyond the d cut, some do not.
    if (trial % 3 != 0)
      std::replace(probs.begin(), probs.end(), 0.0, 0.125);
    expect_grid_matches_oracle(probs, kDefaultD, kDefaultE);
    expect_grid_matches_oracle(probs, kWideD, kWideE);
    if (HasFailure()) return;
  }
}

TEST(TestLengthGrid, ValidatesTheWholeGridUpFront) {
  const std::vector<double> pf = {0.5};
  const std::vector<double> ok_d = {1.0}, ok_e = {0.95};
  for (const double d : {0.0, -0.5, 1.5, std::nan("")}) {
    const std::vector<double> ds = {1.0, d};
    EXPECT_THROW(required_test_lengths(pf, ds, ok_e), std::invalid_argument);
  }
  for (const double e : {0.0, 1.0, -1.0, std::nan("")}) {
    const std::vector<double> es = {0.95, e};
    EXPECT_THROW(required_test_lengths(pf, ok_d, es), std::invalid_argument);
  }
  EXPECT_TRUE(required_test_lengths(pf, {}, ok_e).empty());
  EXPECT_TRUE(required_test_lengths(pf, ok_d, {}).empty());
}

}  // namespace
}  // namespace protest
