// Fault simulator vs a brute-force reference on small circuits, plus mode
// semantics (count vs first-detection with dropping).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <span>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "lint/fault_analyze.hpp"
#include "netlist/builder.hpp"
#include "sim/fault_sim.hpp"
#include "sim/logic_sim.hpp"
#include "util/executor.hpp"

namespace protest {
namespace {

/// Per-pattern reference: does pattern `in` detect fault f?
bool detects(const Netlist& net, const Fault& f, const std::vector<bool>& in) {
  const auto good = simulate_single(net, in);
  std::vector<bool> bad(net.size());
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < in.size(); ++i) bad[inputs[i]] = in[i];
  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    if (g.type != GateType::Input) {
      std::array<bool, 64> ins{};
      for (std::size_t k = 0; k < g.fanin.size(); ++k) {
        bool v = bad[g.fanin[k]];
        if (!f.is_stem() && f.node == n && static_cast<int>(k) == f.pin)
          v = f.sa == StuckAt::One;
        ins[k] = v;
      }
      bad[n] = eval_gate(g.type,
                         std::span<const bool>(ins.data(), g.fanin.size()));
    }
    if (f.is_stem() && f.node == n) bad[n] = f.sa == StuckAt::One;
  }
  for (NodeId o : net.outputs())
    if (good[o] != bad[o]) return true;
  return false;
}

void check_against_reference(const Netlist& net, const PatternSet& ps) {
  const auto faults = full_fault_list(net);
  const auto res =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  ASSERT_EQ(res.detect_count.size(), faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    std::uint64_t count = 0;
    std::int64_t first = -1;
    for (std::size_t p = 0; p < ps.num_patterns(); ++p) {
      std::vector<bool> in(ps.num_inputs());
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = ps.get(p, i);
      if (detects(net, faults[fi], in)) {
        ++count;
        if (first < 0) first = static_cast<std::int64_t>(p);
      }
    }
    EXPECT_EQ(res.detect_count[fi], count) << to_string(net, faults[fi]);
    EXPECT_EQ(res.first_detect[fi], first) << to_string(net, faults[fi]);
  }
}

TEST(FaultSim, MatchesBruteForceOnC17Exhaustive) {
  const Netlist net = make_c17();
  check_against_reference(net, PatternSet::exhaustive(5));
}

TEST(FaultSim, MatchesBruteForceAcrossPatternWindows) {
  // A 12-input AND tree: its output stuck-at-0 needs the all-ones vector
  // (1 in 4096 random patterns), so first detections land past the first
  // window of good-machine values.  10000 patterns end in a partial block.
  NetlistBuilder bld;
  std::vector<NodeId> in;
  for (int i = 0; i < 12; ++i) in.push_back(bld.input("i" + std::to_string(i)));
  const NodeId lo = bld.andn({in.begin(), in.begin() + 6});
  const NodeId hi = bld.andn({in.begin() + 6, in.end()});
  bld.output(bld.and2(lo, hi), "y");
  const Netlist net = bld.build();
  const PatternSet ps = PatternSet::random(12, 10'000, 4);
  const auto res = simulate_faults(net, full_fault_list(net), ps,
                                   FaultSimMode::FirstDetection);
  std::int64_t latest = -1;
  for (const std::int64_t f : res.first_detect) latest = std::max(latest, f);
  ASSERT_GE(latest, 4096) << "no first detection past the first window";
  check_against_reference(net, ps);
}

TEST(FaultSim, MatchesBruteForceOnRandomCircuits) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    RandomCircuitParams params;
    params.num_inputs = 6;
    params.num_gates = 30;
    params.seed = seed;
    const Netlist net = make_random_circuit(params);
    check_against_reference(net, PatternSet::random(6, 100, seed + 77));
  }
}

TEST(FaultSim, DropModeAgreesWithCountModeOnCoverage) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const PatternSet ps = PatternSet::random(5, 200, 5);
  const auto count =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  const auto drop =
      simulate_faults(net, faults, ps, FaultSimMode::FirstDetection);
  EXPECT_EQ(count.coverage(), drop.coverage());
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_EQ(count.first_detect[i], drop.first_detect[i]);
}

TEST(FaultSim, CoverageCurveIsMonotone) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const PatternSet ps = PatternSet::random(5, 128, 3);
  const auto res =
      simulate_faults(net, faults, ps, FaultSimMode::FirstDetection);
  double prev = 0.0;
  for (std::size_t n = 1; n <= 128; n *= 2) {
    const double c = res.coverage_at(n);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_EQ(res.coverage_at(129), res.coverage());
}

TEST(FaultSim, UndetectableFaultStaysUndetected) {
  // y = OR(a, NOT(a)) == 1: the output s-a-1 is undetectable.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId y = bld.or2(a, bld.inv(a));
  bld.output(y, "y");
  const Netlist net = bld.build();
  const Fault f{net.find("y"), -1, StuckAt::One};
  const std::vector<Fault> faults{f};
  const auto res = simulate_faults(net, faults, PatternSet::exhaustive(1),
                                   FaultSimMode::CountDetections);
  EXPECT_EQ(res.detect_count[0], 0u);
  EXPECT_EQ(res.first_detect[0], -1);
}

TEST(FaultSim, DetectionProbsNormalized) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const PatternSet ps = PatternSet::exhaustive(5);
  const auto res =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  const auto probs = res.detection_probs();
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(FaultSim, PartialLastBlockHandled) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  // 70 patterns: the second block has only 6 valid bits.
  const PatternSet ps = PatternSet::random(5, 70, 9);
  const auto res =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_LE(res.detect_count[i], 70u);
    EXPECT_LT(res.first_detect[i], 70);
  }
}

// --- fault-parallel determinism ---------------------------------------------

void expect_same_sim(const FaultSimResult& a, const FaultSimResult& b,
                     const std::string& where) {
  EXPECT_EQ(a.num_patterns, b.num_patterns) << where;
  EXPECT_EQ(a.detect_count, b.detect_count) << where;
  EXPECT_EQ(a.first_detect, b.first_detect) << where;
}

ParallelConfig threads_config(unsigned threads) {
  ParallelConfig pc;
  pc.num_threads = threads;
  return pc;
}

TEST(FaultSimThreads, BitIdenticalForAnyThreadCount) {
  // alu's list spans several 64-fault chunks; the 2k-gate stress netlist
  // has thousands of faults and never-detected ones that stay live.  5000
  // patterns span two windows and end in a partial block, so FirstDetection
  // compacts the live list between windows.
  const std::vector<std::pair<std::string, Netlist>> nets = [] {
    std::vector<std::pair<std::string, Netlist>> v;
    v.emplace_back("alu", make_circuit("alu"));
    v.emplace_back("stress2k",
                   make_random_circuit(stress_circuit_params(2000)));
    return v;
  }();
  for (const auto& [name, net] : nets) {
    const std::vector<Fault> faults = collapsed_fault_list(net);
    ASSERT_GT(faults.size(), 128u) << name;
    const PatternSet ps = PatternSet::random(net.inputs().size(), 5000, 17);
    ParallelConfig shared;
    shared.executor = std::make_shared<Executor>(3u);
    for (const FaultSimMode mode :
         {FaultSimMode::CountDetections, FaultSimMode::FirstDetection}) {
      const std::string tag =
          name + (mode == FaultSimMode::CountDetections ? " count" : " first");
      const FaultSimResult ref =
          simulate_faults(net, faults, ps, mode, threads_config(1));
      for (const unsigned threads : {2u, 3u, 7u})
        expect_same_sim(ref,
                        simulate_faults(net, faults, ps, mode,
                                        threads_config(threads)),
                        tag + " @" + std::to_string(threads));
      expect_same_sim(ref, simulate_faults(net, faults, ps, mode, shared),
                      tag + " @shared");
    }
  }
}

TEST(FaultSimThreads, PrunedRunIsBitIdenticalForAnyThreadCount) {
  const Netlist net = make_random_circuit(stress_circuit_params(2000));
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  ASSERT_GT(fa.undetectable, 0u);
  const PatternSet ps = PatternSet::random(net.inputs().size(), 1000, 5);
  for (const FaultSimMode mode :
       {FaultSimMode::CountDetections, FaultSimMode::FirstDetection}) {
    const FaultSimResult ref =
        simulate_faults_pruned(net, faults, ps, mode, fa, threads_config(1));
    for (const unsigned threads : {2u, 3u, 7u})
      expect_same_sim(ref,
                      simulate_faults_pruned(net, faults, ps, mode, fa,
                                             threads_config(threads)),
                      "pruned @" + std::to_string(threads));
  }
}

TEST(FaultSimThreads, EmptyFaultListAtAnyThreadCount) {
  const Netlist net = make_circuit("alu");
  const PatternSet ps = PatternSet::random(net.inputs().size(), 100, 1);
  for (const unsigned threads : {1u, 3u}) {
    for (const FaultSimMode mode :
         {FaultSimMode::CountDetections, FaultSimMode::FirstDetection}) {
      const FaultSimResult res =
          simulate_faults(net, {}, ps, mode, threads_config(threads));
      EXPECT_EQ(res.num_patterns, 100u);
      EXPECT_TRUE(res.first_detect.empty());
      EXPECT_TRUE(res.detect_count.empty());
    }
  }
}

}  // namespace
}  // namespace protest
