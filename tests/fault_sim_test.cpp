// Fault simulator vs a brute-force reference on small circuits, plus mode
// semantics (count vs first-detection with dropping), and the stem-region
// simulator vs the per-fault cone simulator it replaced (kept here as the
// oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <span>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "lint/fault_analyze.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/compiled.hpp"
#include "prob/signal_prob.hpp"
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
  for (int i = 0; i < 12; ++i)
    in.push_back(bld.input(std::string("i").append(std::to_string(i))));
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

// --- oracle: per-fault cone propagation ------------------------------------

/// The simulator the stem-region one replaced: every fault's difference
/// word is propagated on its own through its fanout cone, one 64-pattern
/// block per event, from the fault site with its faulty site word.
class OracleConeSim {
 public:
  explicit OracleConeSim(const Netlist& net)
      : net_(net),
        cn_(net.compiled()),
        fval_(net.size(), 0),
        val_epoch_(net.size(), 0),
        queued_epoch_(net.size(), 0) {}

  /// OR over primary outputs of (good ^ faulty) after injecting
  /// `site_value` at `site`.
  std::uint64_t propagate(NodeId site, std::uint64_t site_value,
                          std::span<const std::uint64_t> good) {
    ++epoch_;
    heap_.clear();
    fval_[site] = site_value;
    val_epoch_[site] = epoch_;
    std::uint64_t detected = 0;
    if (net_.is_output(site)) detected |= site_value ^ good[site];
    push_fanouts(site);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const NodeId n = heap_.back();
      heap_.pop_back();
      ins_.clear();
      for (NodeId f : cn_.fanin(n))
        ins_.push_back(val_epoch_[f] == epoch_ ? fval_[f] : good[f]);
      const std::uint64_t v = eval_gate_word(cn_.type(n), ins_);
      fval_[n] = v;
      val_epoch_[n] = epoch_;
      const std::uint64_t diff = v ^ good[n];
      if (diff == 0) continue;
      if (net_.is_output(n)) detected |= diff;
      push_fanouts(n);
    }
    return detected;
  }

  /// Faulty word at the fault site given the good values of the block.
  std::uint64_t site_value(const Fault& f,
                           std::span<const std::uint64_t> good) {
    const std::uint64_t forced =
        f.sa == StuckAt::One ? ~std::uint64_t{0} : 0;
    if (f.is_stem()) return forced;
    const std::span<const NodeId> fanin = cn_.fanin(f.node);
    ins_.clear();
    for (std::size_t k = 0; k < fanin.size(); ++k)
      ins_.push_back(static_cast<int>(k) == f.pin ? forced : good[fanin[k]]);
    return eval_gate_word(cn_.type(f.node), ins_);
  }

 private:
  void push_fanouts(NodeId n) {
    for (NodeId s : net_.fanout(n)) {
      if (queued_epoch_[s] == epoch_) continue;
      queued_epoch_[s] = epoch_;
      heap_.push_back(s);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  }

  const Netlist& net_;
  const CompiledNetlist& cn_;
  std::vector<std::uint64_t> fval_;
  std::vector<std::uint64_t> val_epoch_;
  std::vector<std::uint64_t> queued_epoch_;
  std::vector<NodeId> heap_;
  std::vector<std::uint64_t> ins_;
  std::uint64_t epoch_ = 0;
};

/// CountDetections by per-fault cone propagation, serial, block by block.
/// Its first_detect is also what FirstDetection must report.
FaultSimResult oracle_simulate_faults(const Netlist& net,
                                      std::span<const Fault> faults,
                                      const PatternSet& ps) {
  FaultSimResult res;
  res.num_patterns = ps.num_patterns();
  res.first_detect.assign(faults.size(), -1);
  res.detect_count.assign(faults.size(), 0);
  BlockSimulator good_sim(net);
  OracleConeSim cone(net);
  for (std::size_t b = 0; b < ps.num_blocks(); ++b) {
    const std::vector<std::uint64_t>& good = good_sim.run(ps, b);
    const std::uint64_t mask = ps.valid_mask(b);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      const Fault& f = faults[fi];
      const std::uint64_t sv = cone.site_value(f, good);
      if (((sv ^ good[f.node]) & mask) == 0) continue;
      const std::uint64_t det = cone.propagate(f.node, sv, good) & mask;
      if (det == 0) continue;
      if (res.first_detect[fi] < 0)
        res.first_detect[fi] =
            static_cast<std::int64_t>(b * 64 + std::countr_zero(det));
      res.detect_count[fi] += static_cast<std::uint64_t>(std::popcount(det));
    }
  }
  return res;
}

/// What the library must return in `mode`, optionally pruned by `fa`,
/// given the oracle's CountDetections run.
FaultSimResult expected_result(const FaultSimResult& oracle,
                               FaultSimMode mode, const FaultAnalysis* fa) {
  FaultSimResult want = oracle;
  if (fa)
    for (std::size_t i = 0; i < want.first_detect.size(); ++i)
      if (fa->bounds[i].verdict == FaultClass::ProvenUndetectable) {
        want.first_detect[i] = -1;
        want.detect_count[i] = 0;
      }
  if (mode == FaultSimMode::FirstDetection) want.detect_count.clear();
  return want;
}

// --- stem-region simulation vs the oracle -----------------------------------

/// A primary output that also fans out inside a fanout-free region, a
/// driver on two pins of one gate, a dead non-output node and a dead
/// chain, and a primary output in the middle of a single-fanout chain.
Netlist edge_case_netlist() {
  NetlistBuilder bld;
  const NodeId a = bld.input("a"), b = bld.input("b"), c = bld.input("c"),
               d = bld.input("d");
  // x -> g1 (an output with one more fanout) -> g2 -> output.
  const NodeId x = bld.inv(a);
  const NodeId g1 = bld.and2(x, b);
  bld.output(g1, "g1");
  bld.output(bld.or2(g1, c), "g2");
  // One driver on two pins: the pins' branch faults differ from the stem's,
  // and through the XOR the stem's effect cancels itself.
  const NodeId dd = bld.nand2(c, d);
  bld.output(bld.gate(GateType::Or, {dd, dd}), "dup_or");
  bld.output(bld.gate(GateType::Xor, {dd, b, dd}), "dup_xor");
  // Dead logic: a gate nobody reads, and a chain ending in one.
  bld.and2(a, d);
  bld.buf(bld.inv(bld.nor2(b, c)));
  // A chain through an output with a single fanout.
  const NodeId m = bld.xor2(a, d);
  bld.output(m, "mid");
  bld.output(bld.nand2(bld.inv(m), b), "end");
  return bld.build();
}

/// A 240-gate single-fanout chain; side inputs block or pass the
/// difference depending on the gate, so walks run long or stop early.
Netlist long_chain_netlist() {
  NetlistBuilder bld;
  std::vector<NodeId> side;
  for (int i = 0; i < 4; ++i)
    side.push_back(bld.input(std::string("s").append(std::to_string(i))));
  NodeId x = bld.input("head");
  for (int i = 0; i < 240; ++i) {
    const NodeId s = side[static_cast<std::size_t>(i) % side.size()];
    switch (i % 6) {
      case 0: x = bld.nand2(x, s); break;
      case 1: x = bld.xor2(x, s); break;
      case 2: x = bld.inv(x); break;
      case 3: x = bld.or2(x, s); break;
      case 4: x = bld.xnor2(s, x); break;
      default: x = bld.buf(x); break;
    }
  }
  bld.output(x, "tail");
  return bld.build();
}

/// y = AND of 12 inputs: its output stuck-at-0 needs the all-ones vector,
/// so first detections land windows after the first.
Netlist and_tree_netlist() {
  NetlistBuilder bld;
  std::vector<NodeId> in;
  for (int i = 0; i < 12; ++i)
    in.push_back(bld.input(std::string("i").append(std::to_string(i))));
  const NodeId lo = bld.andn({in.begin(), in.begin() + 6});
  const NodeId hi = bld.andn({in.begin() + 6, in.end()});
  bld.output(bld.and2(lo, hi), "y");
  return bld.build();
}

/// Seeded input probabilities in [0.1, 0.9].
InputProbs biased_tuple(const Netlist& net, std::uint64_t seed) {
  InputProbs p(net.inputs().size());
  std::uint64_t state = seed;
  for (double& v : p) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = 0.1 + 0.8 * static_cast<double>(state >> 11) / 9007199254740992.0;
  }
  return p;
}

std::vector<std::pair<std::string, Netlist>> differential_circuits() {
  std::vector<std::pair<std::string, Netlist>> v;
  v.emplace_back("c17", make_c17());
  v.emplace_back("alu", make_circuit("alu"));
  v.emplace_back("mult8", make_circuit("mult8"));
  const char* data = std::getenv("PROTEST_DATA");
  EXPECT_NE(data, nullptr) << "PROTEST_DATA not set (see CMakeLists.txt)";
  if (data)
    for (const char* f :
         {"c17", "alu74181", "cla74182", "add74283", "par74280"})
      v.emplace_back(f,
                     read_bench_file(std::string(data) + "/" + f + ".bench"));
  v.emplace_back("stress1k", make_random_circuit(stress_circuit_params(1000)));
  v.emplace_back("stress2k", make_random_circuit(stress_circuit_params(2000)));
  v.emplace_back("edge", edge_case_netlist());
  v.emplace_back("chain", long_chain_netlist());
  v.emplace_back("and12", and_tree_netlist());
  return v;
}

TEST(StemSimDifferential, MatchesThePerFaultOracle) {
  // Every circuit under p = 0.5 and a biased tuple, at pattern counts
  // around the block and event-width edges (1, 2, 4, 8 and 16 words per
  // event, one, two and five windows; the circuits with thousands of
  // faults at a subset that still crosses a block edge and a window edge),
  // in both modes, plain and pruned, at 1/2/3/7 threads and on an injected
  // executor.
  ParallelConfig shared;
  shared.executor = std::make_shared<Executor>(3u);
  std::vector<std::pair<std::string, ParallelConfig>> configs;
  for (const unsigned t : {1u, 2u, 3u, 7u})
    configs.emplace_back(std::string("@").append(std::to_string(t)),
                         threads_config(t));
  configs.emplace_back("@shared", shared);

  for (const auto& [name, net] : differential_circuits()) {
    const std::vector<Fault> faults = collapsed_fault_list(net);
    for (const bool biased : {false, true}) {
      const InputProbs probs = biased ? biased_tuple(net, faults.size())
                                      : uniform_input_probs(net, 0.5);
      FaultAnalyzeOptions fo;
      fo.input_probs = probs;
      const FaultAnalysis fa = analyze_faults(net, faults, fo);
      const std::vector<std::size_t> counts =
          faults.size() > 1000
              ? std::vector<std::size_t>{1, 64, 65, 1025}
              : std::vector<std::size_t>{1, 63, 64, 65, 250, 500, 1023, 1024,
                                         1025, 5000};
      for (const std::size_t n : counts) {
        const PatternSet ps = PatternSet::weighted(probs, n, n + 3);
        const FaultSimResult oracle = oracle_simulate_faults(net, faults, ps);
        if (name == "and12" && n == 5000) {
          ASSERT_GE(*std::max_element(oracle.first_detect.begin(),
                                      oracle.first_detect.end()),
                    1024)
              << "no first detection past the first window";
        }
        for (const FaultSimMode mode :
             {FaultSimMode::CountDetections, FaultSimMode::FirstDetection}) {
          for (const bool pruned : {false, true}) {
            const FaultSimResult want =
                expected_result(oracle, mode, pruned ? &fa : nullptr);
            for (const auto& [tag, pc] : configs) {
              const std::string where =
                  name + (biased ? " biased" : " p=0.5") + " n=" +
                  std::to_string(n) +
                  (mode == FaultSimMode::CountDetections ? " count"
                                                         : " first") +
                  (pruned ? " pruned " : " plain ") + tag;
              expect_same_sim(
                  want,
                  pruned ? simulate_faults_pruned(net, faults, ps, mode, fa, pc)
                         : simulate_faults(net, faults, ps, mode, pc),
                  where);
            }
          }
        }
      }
    }
  }
}

TEST(StemSimDifferential, MatchesTheOracleAcrossClampedWindows) {
  // 11,000 copies of c17 on five shared inputs: 66,005 nodes, so the
  // good-machine budget clamps events to 8 words and 1,600 patterns span
  // four windows, the last one partial.  The faults are those of the
  // inputs and of the first and last two copies; the inputs' cones reach
  // every copy.
  NetlistBuilder bld;
  std::vector<NodeId> in;
  for (int i = 0; i < 5; ++i)
    in.push_back(bld.input(std::string("i").append(std::to_string(i))));
  for (int copy = 0; copy < 11'000; ++copy) {
    const NodeId g10 = bld.nand2(in[0], in[2]);
    const NodeId g11 = bld.nand2(in[2], in[3]);
    const NodeId g16 = bld.nand2(in[1], g11);
    const NodeId g19 = bld.nand2(g11, in[4]);
    bld.output(bld.nand2(g16, g19));
    bld.output(bld.nand2(g10, g16));
  }
  const Netlist net = bld.build();
  ASSERT_GT(net.size(), std::size_t{65'536});
  std::vector<Fault> faults;
  for (const Fault& f : collapsed_fault_list(net))
    if (f.node < 5 + 12 || f.node >= net.size() - 12) faults.push_back(f);
  const PatternSet ps = PatternSet::random(5, 1600, 11);
  const FaultSimResult oracle = oracle_simulate_faults(net, faults, ps);
  for (const FaultSimMode mode :
       {FaultSimMode::CountDetections, FaultSimMode::FirstDetection}) {
    const FaultSimResult want = expected_result(oracle, mode, nullptr);
    for (const unsigned t : {1u, 3u})
      expect_same_sim(want,
                      simulate_faults(net, faults, ps, mode, threads_config(t)),
                      "clamped @" + std::to_string(t));
  }
}

}  // namespace
}  // namespace protest
