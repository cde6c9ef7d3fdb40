// Signal probability engines: naive (AgAg75), exact (BDD + enumeration),
// Monte-Carlo, static interval bounds, and the PROTEST estimator (sect. 2).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/sn74181.hpp"
#include "circuits/zoo.hpp"
#include "lint/prob_bounds.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/cone.hpp"
#include "netlist/builder.hpp"
#include "prob/exact.hpp"
#include "prob/monte_carlo.hpp"
#include "prob/naive.hpp"
#include "prob/protest_estimator.hpp"
#include "validate/stats.hpp"

namespace protest {
namespace {

Netlist make_tree() {
  // No fanout at all: y = OR(AND(a,b), XOR(c, NOT(d))).
  NetlistBuilder bld;
  const NodeId a = bld.input("a"), b = bld.input("b");
  const NodeId c = bld.input("c"), d = bld.input("d");
  bld.output(bld.or2(bld.and2(a, b), bld.xor2(c, bld.inv(d))), "y");
  return bld.build();
}

Netlist make_diamond() {
  // y = AND(NOT(s), BUF(s)) with s = AND(a,b): y is constant 0.
  NetlistBuilder bld;
  const NodeId a = bld.input("a"), b = bld.input("b");
  const NodeId s = bld.and2(a, b);
  bld.output(bld.and2(bld.inv(s), bld.buf(s)), "y");
  return bld.build();
}

TEST(NaiveProbs, ExactOnTrees) {
  const Netlist net = make_tree();
  EXPECT_TRUE(is_fanout_reconvergence_free(net));
  const double ip[] = {0.3, 0.6, 0.5, 0.9};
  const auto naive = naive_signal_probs(net, ip);
  const auto exact = exact_signal_probs_enum(net, ip);
  for (NodeId n = 0; n < net.size(); ++n)
    EXPECT_NEAR(naive[n], exact[n], 1e-12) << n;
}

TEST(NaiveProbs, WrongOnDiamond) {
  const Netlist net = make_diamond();
  EXPECT_FALSE(is_fanout_reconvergence_free(net));
  const auto naive = naive_signal_probs(net, uniform_input_probs(net));
  // True probability of y is 0; naive gives p(1-p) = 0.1875.
  EXPECT_NEAR(naive[net.outputs()[0]], 0.25 * 0.75, 1e-12);
}

TEST(ExactProbs, BddEqualsEnumeration) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    RandomCircuitParams params;
    params.num_inputs = 7;
    params.num_gates = 40;
    params.seed = seed;
    const Netlist net = make_random_circuit(params);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> uni(0.05, 0.95);
    std::vector<double> ip(7);
    for (double& p : ip) p = uni(rng);
    const auto bdd = exact_signal_probs_bdd(net, ip);
    const auto num = exact_signal_probs_enum(net, ip);
    for (NodeId n = 0; n < net.size(); ++n)
      EXPECT_NEAR(bdd[n], num[n], 1e-9) << "seed " << seed << " node " << n;
  }
}

TEST(ExactProbs, EnumRejectsWideCircuits) {
  RandomCircuitParams params;
  params.num_inputs = 25;
  params.num_gates = 5;
  const Netlist net = make_random_circuit(params);
  EXPECT_THROW(exact_signal_probs_enum(net, uniform_input_probs(net)),
               std::invalid_argument);
}

TEST(MonteCarlo, ConvergesToExact) {
  const Netlist net = make_c17();
  const auto ip = uniform_input_probs(net, 0.5);
  const auto exact = exact_signal_probs_bdd(net, ip);
  constexpr std::size_t kPatterns = 200'000;
  const auto mc = monte_carlo_signal_probs(net, ip, kPatterns, 12345);
  // Hoeffding tolerance at aggregate false-positive rate 1e-6 across the
  // per-node comparisons (validate/stats.hpp) — no hand-tuned epsilon.
  const double tol =
      mc_tolerance(kPatterns, net.size(), net.inputs().size());
  for (NodeId n = 0; n < net.size(); ++n)
    EXPECT_NEAR(mc[n], exact[n], tol) << n;
}

TEST(StaticBounds, ContainExactEverywhere) {
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    RandomCircuitParams params;
    params.num_inputs = 7;
    params.num_gates = 50;
    params.seed = seed;
    const Netlist net = make_random_circuit(params);
    const auto ip = uniform_input_probs(net, 0.5);
    const auto exact = exact_signal_probs_bdd(net, ip);
    const SignalProbBounds bounds = signal_prob_bounds(net, ip);
    for (NodeId n = 0; n < net.size(); ++n) {
      EXPECT_GE(exact[n], bounds.lo[n] - 1e-12)
          << "seed " << seed << " node " << n;
      EXPECT_LE(exact[n], bounds.hi[n] + 1e-12)
          << "seed " << seed << " node " << n;
    }
  }
}

TEST(StaticBounds, TightOnTrees) {
  // No fanout: every fold is an independence fold, so each interval is
  // the exact probability as a point.
  const Netlist net = make_tree();
  const double ip[] = {0.3, 0.6, 0.5, 0.9};
  const auto exact = exact_signal_probs_enum(net, ip);
  const SignalProbBounds bounds = signal_prob_bounds(net, ip);
  EXPECT_EQ(bounds.frechet_gates, 0u);
  for (NodeId n = 0; n < net.size(); ++n) {
    EXPECT_TRUE(bounds.exact[n]) << n;
    EXPECT_NEAR(bounds.lo[n], exact[n], 1e-12) << n;
    EXPECT_NEAR(bounds.hi[n], exact[n], 1e-12) << n;
  }
}

TEST(ProtestEstimator, ExactOnDiamond) {
  const Netlist net = make_diamond();
  const ProtestEstimator est(net);
  const auto p = est.signal_probs(uniform_input_probs(net));
  EXPECT_NEAR(p[net.outputs()[0]], 0.0, 1e-12);
  EXPECT_GE(est.stats().gates_conditioned, 1u);
}

TEST(ProtestEstimator, ExactOnDirectReconvergence) {
  // y = AND(a, NOT(a)) == 0 and z = OR(a, NOT(a)) == 1.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId na = bld.inv(a);
  bld.output(bld.and2(a, na), "y");
  bld.output(bld.or2(a, na), "z");
  const Netlist net = bld.build();
  const ProtestEstimator est(net);
  const auto p = est.signal_probs(uniform_input_probs(net));
  EXPECT_NEAR(p[net.find("y")], 0.0, 1e-12);
  EXPECT_NEAR(p[net.find("z")], 1.0, 1e-12);
}

TEST(ProtestEstimator, ExactOnC17) {
  // c17 is small enough that MAXVERS=4 covers every joining point set.
  const Netlist net = make_c17();
  const ProtestEstimator est(net);
  for (double p0 : {0.5, 0.3, 0.8}) {
    const auto ip = uniform_input_probs(net, p0);
    const auto est_p = est.signal_probs(ip);
    const auto exact = exact_signal_probs_bdd(net, ip);
    for (NodeId n = 0; n < net.size(); ++n)
      EXPECT_NEAR(est_p[n], exact[n], 1e-9) << "p0=" << p0 << " node " << n;
  }
}

TEST(ProtestEstimator, MaxversZeroDegeneratesToNaive) {
  const Netlist net = make_c17();
  ProtestParams params;
  params.maxvers = 0;
  const ProtestEstimator est(net, params);
  const auto ip = uniform_input_probs(net, 0.5);
  const auto est_p = est.signal_probs(ip);
  const auto naive = naive_signal_probs(net, ip);
  for (NodeId n = 0; n < net.size(); ++n)
    EXPECT_NEAR(est_p[n], naive[n], 1e-12) << n;
}

TEST(ProtestEstimator, MaxlistBoundsSearchDepth) {
  // Long asymmetric diamond: y = AND(NOT^4(s), BUF(s)).  NOT^4 is the
  // identity, so exactly p(y) = p(s) = 0.25, while naive propagation gives
  // p(s)^2 = 0.0625.  With MAXLIST=2 the stem's left branch lies 3 steps
  // from the left root, so the joining point is invisible -> naive value;
  // unbounded search recovers exactness.
  NetlistBuilder bld;
  const NodeId a = bld.input("a"), b = bld.input("b");
  const NodeId s = bld.and2(a, b);
  NodeId l = s;
  for (int i = 0; i < 4; ++i) l = bld.inv(l);
  bld.output(bld.and2(l, bld.buf(s)), "y");
  const Netlist net = bld.build();

  ProtestParams bounded;
  bounded.maxlist = 2;
  const auto p_bounded = ProtestEstimator(net, bounded)
                             .signal_probs(uniform_input_probs(net));
  EXPECT_NEAR(p_bounded[net.outputs()[0]], 0.0625, 1e-12);

  ProtestParams unbounded;
  unbounded.maxlist = 0;
  const auto p_full = ProtestEstimator(net, unbounded)
                          .signal_probs(uniform_input_probs(net));
  EXPECT_NEAR(p_full[net.outputs()[0]], 0.25, 1e-12);
}

// Property sweep: on random reconvergent circuits the estimator must be at
// least as accurate (in mean absolute error vs exact) as naive propagation.
class EstimatorAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(EstimatorAccuracy, BeatsOrMatchesNaive) {
  RandomCircuitParams params;
  params.num_inputs = 8;
  params.num_gates = 60;
  params.seed = static_cast<std::uint64_t>(GetParam());
  const Netlist net = make_random_circuit(params);
  const auto ip = uniform_input_probs(net, 0.5);
  const auto exact = exact_signal_probs_bdd(net, ip);
  const auto naive = naive_signal_probs(net, ip);
  const ProtestEstimator est(net);
  const auto guess = est.signal_probs(ip);
  double err_naive = 0, err_est = 0;
  for (NodeId n = 0; n < net.size(); ++n) {
    err_naive += std::abs(naive[n] - exact[n]);
    err_est += std::abs(guess[n] - exact[n]);
  }
  // Allow a tiny slack: conditioning is a heuristic and can locally lose.
  EXPECT_LE(err_est, err_naive + 0.05)
      << "estimator " << err_est << " vs naive " << err_naive;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorAccuracy, ::testing::Range(1, 13));

TEST(ProtestEstimator, AccurateOnAlu) {
  const Netlist net = make_sn74181();
  const auto ip = uniform_input_probs(net, 0.5);
  const auto exact = exact_signal_probs_enum(net, ip);
  const auto naive = naive_signal_probs(net, ip);
  const ProtestEstimator est(net);
  const auto guess = est.signal_probs(ip);
  double err_naive = 0, err_est = 0, max_est = 0;
  for (NodeId n = 0; n < net.size(); ++n) {
    err_naive += std::abs(naive[n] - exact[n]);
    err_est += std::abs(guess[n] - exact[n]);
    max_est = std::max(max_est, std::abs(guess[n] - exact[n]));
  }
  err_naive /= static_cast<double>(net.size());
  err_est /= static_cast<double>(net.size());
  EXPECT_LT(err_est, err_naive);   // conditioning must help on the ALU
  EXPECT_LT(err_est, 0.03);        // and be accurate in absolute terms
}

TEST(ProtestEstimator, RejectsBadInputs) {
  const Netlist net = make_c17();
  const ProtestEstimator est(net);
  const double too_few[] = {0.5};
  EXPECT_THROW(est.signal_probs(too_few), std::invalid_argument);
  const double out_of_range[] = {0.5, 0.5, 1.5, 0.5, 0.5};
  EXPECT_THROW(est.signal_probs(out_of_range), std::invalid_argument);
}

// --- golden bit-identity regression ----------------------------------------
//
// FNV-1a over the raw bits of every double the estimator returns through
// each public entry point: signal_probs, stats(), signal_probs_batch of three
// tuples, signal_probs_perturb in both modes, and a tuple holding a 0.0 and
// a 1.0 input.  The expected hashes were recorded at commit a360e86, from
// the Gate-struct ConeProp estimator that re-propagated the whole bounded
// cone for every conditional, before the sparse CSR propagator replaced
// it: they pin that the rewrite changed no bit of any output.  The hashes
// assume IEEE binary64 arithmetic without FP contraction, which is what
// the default x86-64 build does (no FMA).

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(std::span<const double> v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (double d : v) add(d);
  }
  void add(const ProtestStats& s) {
    add(static_cast<std::uint64_t>(s.gates_conditioned));
    add(static_cast<std::uint64_t>(s.total_joining_points));
    add(static_cast<std::uint64_t>(s.max_w));
  }
};

/// Deterministic tuple without a library RNG (distributions differ across
/// standard libraries): a golden-ratio walk over [0.05, 0.95].
InputProbs golden_tuple(std::size_t k, double phase) {
  InputProbs t(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double u = static_cast<double>(i) * 0.6180339887498949 + phase;
    t[i] = 0.05 + 0.9 * (u - static_cast<double>(static_cast<long>(u)));
  }
  return t;
}

std::uint64_t estimator_hash(const Netlist& net, const ProtestParams& params) {
  const ProtestEstimator est(net, params);
  const std::size_t k = net.inputs().size();
  const InputProbs t0 = golden_tuple(k, 0.25);
  const InputProbs t1 = golden_tuple(k, 0.5);
  InputProbs edge = golden_tuple(k, 0.75);
  edge[0] = 0.0;
  if (k > 1) edge[k - 1] = 1.0;

  Fnv1a h;
  const std::vector<double> base = est.signal_probs(t0);
  h.add(base);
  h.add(est.stats());
  const std::vector<InputProbs> batch = {t0, t1, edge};
  for (const auto& v : est.signal_probs_batch(batch)) h.add(v);
  h.add(est.stats());
  const std::size_t idx = k / 2;
  h.add(est.signal_probs_perturb(t0, base, idx, 0.3, PerturbMode::Exact));
  h.add(est.signal_probs_perturb(t0, base, idx, 0.3,
                                 PerturbMode::FrozenSelection));
  h.add(est.signal_probs(edge));
  h.add(est.stats());
  return h.h;
}

struct GoldenParams {
  const char* name;
  ProtestParams params;
};

const GoldenParams kGoldenParams[] = {
    {"default", ProtestParams{}},
    {"narrow", ProtestParams{2, 6, 8}},
    {"wide", ProtestParams{6, 20, 30}},
};

struct GoldenCase {
  const char* circuit;  ///< zoo name, or "data:<file>" for tests/data
  std::uint64_t hash[3];  ///< one per kGoldenParams entry
};

const GoldenCase kGoldenCases[] = {
    {"c17", {0xca2b3f95c525f20eull, 0xca2b3f95c525f20eull, 0xca2b3f95c525f20eull}},
    {"alu", {0xa315ad4ae32f5578ull, 0x86f0d26536df9203ull, 0xe0b29650d68512a6ull}},
    {"mult", {0xddc8ed5500719131ull, 0xa05b5ed746c9aeadull, 0x2dd555efb7b735bcull}},
    {"div", {0x61c9e824b4b2e17bull, 0x195cbf1c76ddf0b0ull, 0xf6c211243dec7bbeull}},
    {"comp", {0x9dc5d2c1d385d7cdull, 0x022d4a88390e3e11ull, 0x4e93474582c095d6ull}},
    {"sn7485", {0x9484d216bc4e8a2cull, 0x0cf40eeb1a38d287ull, 0xa54c76ca2ad8600bull}},
    {"mult4", {0xd14aa2bd0038ded3ull, 0x5837fb83527e00c0ull, 0x59cbc50342ae422eull}},
    {"mult8", {0xf487961fddcee625ull, 0xa2c0ce08f8b80a84ull, 0x0fe463bd21fd98fbull}},
    {"mult12", {0xae311a71bd29a58aull, 0xbe227ecc637c9f6full, 0xa33886685a6832f3ull}},
    {"mult16", {0x7634f8db53bdab9full, 0xef7ec7d8aa1a6e00ull, 0xfe86a2fe7f637d5full}},
    {"div8", {0x1ad45ab712a627e3ull, 0x9a014e6a571ec5a8ull, 0x938f9859efbdb2e6ull}},
    {"data:add74283.bench", {0x7d8295064bd137a8ull, 0x3da466cc951bff96ull, 0x8a96822cc7454eacull}},
    {"data:alu74181.bench", {0xa315ad4ae32f5578ull, 0x86f0d26536df9203ull, 0xe0b29650d68512a6ull}},
    {"data:c17.bench", {0xca2b3f95c525f20eull, 0xca2b3f95c525f20eull, 0xca2b3f95c525f20eull}},
    {"data:cla74182.bench", {0xf86b66fdb2e992e1ull, 0xf86b66fdb2e992e1ull, 0xf86b66fdb2e992e1ull}},
    {"data:par74280.bench", {0xcffa6bb8120a82daull, 0xcffa6bb8120a82daull, 0xcffa6bb8120a82daull}},
};

Netlist golden_circuit(const std::string& name) {
  if (name.rfind("data:", 0) != 0) return make_circuit(name);
  const char* data = std::getenv("PROTEST_DATA");
  if (!data) throw std::runtime_error("PROTEST_DATA not set");
  return read_bench_file(std::string(data) + "/" + name.substr(5));
}

TEST(ProtestGolden, BitIdenticalAcrossParamSets) {
  for (const GoldenCase& c : kGoldenCases) {
    const Netlist net = golden_circuit(c.circuit);
    for (std::size_t i = 0; i < std::size(kGoldenParams); ++i) {
      const std::uint64_t got = estimator_hash(net, kGoldenParams[i].params);
      EXPECT_EQ(got, c.hash[i])
          << c.circuit << " / " << kGoldenParams[i].name << ": got 0x"
          << std::hex << got;
    }
  }
}

// More candidates than one 64-bit reach mask holds: unbounded cones
// (maxlist 0) and max_candidates 100.  mult8 has gates with 289 candidate
// joining points (trimmed to 100), which the test asserts so the case
// cannot silently stop covering the wide path.
TEST(ProtestGolden, WideCandidateLists) {
  ProtestParams wide;
  wide.maxlist = 0;
  wide.max_candidates = 100;
  const struct {
    const char* circuit;
    std::uint64_t hash;
  } cases[] = {
      {"c17", 0xca2b3f95c525f20eull},
      {"alu", 0xa315ad4ae32f5578ull},
      {"mult8", 0x7dbbf0fa036f47a1ull},
  };
  for (const auto& c : cases) {
    const Netlist net = make_circuit(c.circuit);
    const std::uint64_t got = estimator_hash(net, wide);
    EXPECT_EQ(got, c.hash) << c.circuit << ": got 0x" << std::hex << got;
  }

  const Netlist mult8 = make_circuit("mult8");
  ConeWorkspace ws(mult8);
  std::size_t most = 0;
  for (NodeId n = 0; n < mult8.size(); ++n) {
    const Gate& g = mult8.gate(n);
    if (g.type == GateType::Input || g.fanin.size() < 2) continue;
    ws.compute(g.fanin, wide.maxlist);
    most = std::max(most, ws.conditioning_points(n).size());
  }
  EXPECT_GT(std::min<std::size_t>(most, wide.max_candidates), 64u);
}

}  // namespace
}  // namespace protest
