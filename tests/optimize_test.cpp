// Input-probability optimization (sect. 6), LFSRs and weighted pattern
// generation (sect. 8).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "circuits/comp24.hpp"
#include "circuits/iscas.hpp"
#include "netlist/builder.hpp"
#include "optimize/hill_climb.hpp"
#include "sim/lfsr.hpp"
#include "optimize/objective.hpp"
#include "optimize/weighted_patterns.hpp"
#include "prob/naive.hpp"
#include "testlen/test_length.hpp"

namespace protest {
namespace {

TEST(Objective, LogObjectiveIncreasesWithDetectability) {
  const Netlist net = make_c17();
  ObjectiveEvaluator eval(net, structural_fault_list(net), 100);
  const auto lo = eval.log_objective(uniform_input_probs(net, 0.05));
  const auto hi = eval.log_objective(uniform_input_probs(net, 0.5));
  EXPECT_GT(hi, lo);
  EXPECT_LE(hi, 0.0);  // log of a probability
}

TEST(Objective, MatchesManualFormula) {
  const Netlist net = make_c17();
  ObjectiveEvaluator eval(net, structural_fault_list(net), 50);
  const auto ip = uniform_input_probs(net, 0.5);
  const auto pf = eval.detection_probs(ip);
  const double direct = eval.log_objective(ip);
  const double via_probs = eval.log_objective_from_probs(pf);
  EXPECT_DOUBLE_EQ(direct, via_probs);
  EXPECT_NEAR(std::exp(direct), set_detection_prob(pf, 50), 1e-9);
}

TEST(HillClimb, ImprovesObjectiveOnAsymmetricCircuit) {
  // y = AND of 6 inputs: optimal probabilities push every input toward 1
  // for the sa-0 faults while keeping sa-1 detectable.
  NetlistBuilder bld;
  std::vector<NodeId> ins;
  for (int i = 0; i < 6; ++i)
    ins.push_back(bld.input(std::string("i").append(std::to_string(i))));
  bld.output(bld.andn(std::move(ins)), "y");
  const Netlist net = bld.build();
  ObjectiveEvaluator eval(net, structural_fault_list(net), 100);
  const double at_half = eval.log_objective(uniform_input_probs(net, 0.5));
  const HillClimbResult res = optimize_input_probs(eval);
  EXPECT_GT(res.log_objective, at_half);
  for (double p : res.probs) EXPECT_GT(p, 0.5);  // climbed toward 1
}

TEST(HillClimb, StaysOnGrid) {
  const Netlist net = make_c17();
  ObjectiveEvaluator eval(net, structural_fault_list(net), 100);
  HillClimbOptions opts;
  opts.grid_denominator = 16;
  const HillClimbResult res = optimize_input_probs(eval, opts);
  for (double p : res.probs) {
    const double k = p * 16;
    EXPECT_NEAR(k, std::round(k), 1e-9);
    EXPECT_GE(p, 1.0 / 16);
    EXPECT_LE(p, 15.0 / 16);
  }
  EXPECT_GT(res.evaluations, 0u);
}

TEST(HillClimb, ReducesComparatorTestLength) {
  // The headline effect of Table 5: optimized probabilities cut the
  // required pattern count for the 24-bit comparator by orders of
  // magnitude.
  const Netlist net = make_comp24();
  const auto faults = structural_fault_list(net);
  ObjectiveEvaluator eval(net, faults, 2000);
  const auto pf_uniform = eval.detection_probs(uniform_input_probs(net, 0.5));
  const std::uint64_t n_uniform = required_test_length(pf_uniform, 0.98, 0.95);

  HillClimbOptions opts;
  opts.max_sweeps = 4;  // keep the unit test fast
  const HillClimbResult res = optimize_input_probs(eval, opts);
  const auto pf_opt = eval.detection_probs(res.probs);
  const std::uint64_t n_opt = required_test_length(pf_opt, 0.98, 0.95);

  ASSERT_NE(n_uniform, kInfiniteTestLength);
  ASSERT_NE(n_opt, kInfiniteTestLength);
  EXPECT_LT(n_opt, n_uniform / 100) << "uniform " << n_uniform
                                    << " vs optimized " << n_opt;
}

TEST(Lfsr, MaximalPeriodSmallWidths) {
  for (unsigned width : {2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    Lfsr lfsr(width, 1);
    std::set<std::uint64_t> seen;
    const std::uint64_t period = (1ull << width) - 1;
    for (std::uint64_t i = 0; i < period; ++i) seen.insert(lfsr.step());
    EXPECT_EQ(seen.size(), period) << "width " << width;
    EXPECT_FALSE(seen.contains(0)) << "width " << width;
  }
}

TEST(Lfsr, ZeroSeedAvoidsLockup) {
  Lfsr lfsr(8, 0);
  EXPECT_NE(lfsr.state(), 0u);
  lfsr.step();
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(Lfsr, RejectsUnknownWidth) {
  EXPECT_THROW(Lfsr(33, 1), std::invalid_argument);
  EXPECT_THROW(Lfsr(1, 1), std::invalid_argument);
}

TEST(Quantize, SnapsToGridAvoidingConstants) {
  const double probs[] = {0.0, 1.0, 0.5, 0.634, 0.031, 0.97};
  const auto q = quantize_to_grid(probs, 16);
  EXPECT_DOUBLE_EQ(q[0], 1.0 / 16);   // never 0
  EXPECT_DOUBLE_EQ(q[1], 15.0 / 16);  // never 1
  EXPECT_DOUBLE_EQ(q[2], 8.0 / 16);
  EXPECT_DOUBLE_EQ(q[3], 10.0 / 16);
  EXPECT_DOUBLE_EQ(q[4], 1.0 / 16);
  EXPECT_DOUBLE_EQ(q[5], 15.0 / 16);
}

TEST(WeightedLfsr, RealizedProbabilitiesMatchWeights) {
  // Weights 1..15 of 16: empirical frequency must track k/16 closely.
  std::vector<unsigned> weights;
  for (unsigned k = 1; k <= 15; ++k) weights.push_back(k);
  WeightedLfsrGenerator gen(weights, 16, 0xBEEF);
  const PatternSet ps = gen.generate(20'000);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    std::size_t ones = 0;
    for (std::size_t p = 0; p < ps.num_patterns(); ++p) ones += ps.get(p, i);
    const double freq = static_cast<double>(ones) / 20'000;
    EXPECT_NEAR(freq, weights[i] / 16.0, 0.02) << "weight " << weights[i];
  }
}

TEST(WeightedLfsr, ValidatesParameters) {
  EXPECT_THROW(WeightedLfsrGenerator({1, 2}, 12), std::invalid_argument);
  EXPECT_THROW(WeightedLfsrGenerator({0}, 16), std::invalid_argument);
  EXPECT_THROW(WeightedLfsrGenerator({16}, 16), std::invalid_argument);
}

TEST(WeightedLfsr, RoundTripThroughWeightHelpers) {
  const double probs[] = {0.25, 0.9375, 0.5};
  const auto q = quantize_to_grid(probs, 16);
  const auto w = weights_from_probs(q, 16);
  EXPECT_EQ(w, (std::vector<unsigned>{4, 15, 8}));
}

}  // namespace
}  // namespace protest
