// The static fault analyzer: implication-engine learning, per-fault
// classification on hand-built redundant circuits, interval soundness
// against the exact BDD miter oracle, the pruned/bounded consumers
// (detection_probs_bounded, simulate_faults_pruned), and the differential
// suite that pins the speculative learning loop and the site-grouped
// sweeps to the serial loop and the per-fault sweep they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "lint/fault_analyze.hpp"
#include "lint/fold.hpp"
#include "lint/implication.hpp"
#include "lint/prob_bounds.hpp"
#include "netlist/bench_io.hpp"
#include "observe/detect.hpp"
#include "observe/miter.hpp"
#include "observe/observability.hpp"
#include "prob/protest_estimator.hpp"
#include "prob/signal_prob.hpp"
#include "sim/fault_sim.hpp"
#include "sim/word_sim.hpp"
#include "util/executor.hpp"

namespace protest {
namespace {

Netlist random_net(std::uint64_t seed, std::size_t inputs, std::size_t gates) {
  RandomCircuitParams p;
  p.num_inputs = inputs;
  p.num_gates = gates;
  p.seed = seed;
  return make_random_circuit(p);
}

// --- implication engine -----------------------------------------------------

TEST(Implication, LearnsXorOfSameSignalIsZero) {
  // The forward lattice cannot see XOR(a, a) = 0; one level of recursive
  // learning (split on a) proves it.
  const Netlist net = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
      "t = XOR(a, a)\n"
      "y = OR(t, b)\n");
  ImplicationStats stats;
  const std::vector<signed char> learned =
      learn_constants(net, ImplicationOptions{}, &stats);
  NodeId t = kNoNode;
  for (NodeId n = 0; n < net.size(); ++n)
    if (net.name_of(n) == "t") t = n;
  ASSERT_NE(t, kNoNode);
  EXPECT_EQ(learned[t], 0);
  EXPECT_GT(stats.conflicts, 0u);
}

TEST(Implication, ForwardLatticeConstantsAreAlsoLearned) {
  const Netlist net = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\nc = CONST1()\ny = AND(a, c)\n");
  const std::vector<signed char> learned = learn_constants(net);
  for (NodeId n = 0; n < net.size(); ++n)
    if (net.gate(n).type == GateType::Const1) {
      EXPECT_EQ(learned[n], 1);
    }
}

TEST(Implication, LearnedConstantsAgreeWithExhaustiveTruth) {
  // Soundness: every learned constant must hold on EVERY input vector.
  // (The 74181 ALU model genuinely contains four const-1 nodes, which the
  // engine finds; c17 is irredundant and must learn nothing.)
  for (const char* name : {"c17", "alu"}) {
    const Netlist net = make_circuit(name);
    const std::vector<signed char> learned = learn_constants(net);
    const std::size_t ni = net.inputs().size();
    ASSERT_LE(ni, 16u);
    WordSimulator sim(net, 1);
    std::vector<std::uint64_t> ones(net.size(), 0), zeros(net.size(), 0);
    for (std::uint64_t base = 0; base < (1ull << ni); base += 64) {
      for (std::size_t i = 0; i < ni; ++i) {
        std::uint64_t w = 0;
        for (int b = 0; b < 64; ++b) w |= (((base + b) >> i) & 1ull) << b;
        sim.input_words(i)[0] = w;
      }
      sim.run();
      for (NodeId n = 0; n < net.size(); ++n) {
        ones[n] |= sim.node_words(n)[0];
        zeros[n] |= ~sim.node_words(n)[0];
      }
    }
    for (NodeId n = 0; n < net.size(); ++n) {
      if (learned[n] < 0) continue;
      if (learned[n] == 1)
        EXPECT_EQ(zeros[n], 0u) << name << " node " << n;
      else
        EXPECT_EQ(ones[n], 0u) << name << " node " << n;
    }
    if (std::string(name) == "c17") {
      for (NodeId n = 0; n < net.size(); ++n)
        EXPECT_EQ(learned[n], -1) << "c17 node " << n;
    }
  }
}

// --- classification ---------------------------------------------------------

const FaultBound& bound_for(const Netlist& net,
                            const std::vector<Fault>& faults,
                            const FaultAnalysis& fa, std::string_view name,
                            StuckAt sa) {
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (faults[i].is_stem() && net.name_of(faults[i].node) == name &&
        faults[i].sa == sa)
      return fa.bounds[i];
  throw std::logic_error("fault not in collapsed list");
}

TEST(FaultAnalyze, LearnedConstantMakesStuckAtItUnexcitable) {
  const Netlist net = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
      "t = XOR(a, a)\n"
      "y = OR(t, b)\n");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  // t is provably 0: s-a-0 at t can never be excited...
  const FaultBound& sa0 = bound_for(net, faults, fa, "t", StuckAt::Zero);
  EXPECT_EQ(sa0.verdict, FaultClass::ProvenUndetectable);
  EXPECT_EQ(sa0.cause, UndetectableCause::Unexcitable);
  EXPECT_EQ(sa0.hi, 0.0);
  // ...while the s-a-1 class (t s-a-1 ~ y s-a-1, collapsed onto the
  // b stem) forces y to 1 and shows exactly when b = 0: p = 1/2.
  const FaultBound& sa1 = bound_for(net, faults, fa, "b", StuckAt::One);
  EXPECT_EQ(sa1.verdict, FaultClass::ProvenDetectable);
  EXPECT_DOUBLE_EQ(sa1.lo, 0.5);
  EXPECT_DOUBLE_EQ(sa1.hi, 0.5);
  EXPECT_GT(fa.undetectable, 0u);
  EXPECT_GT(fa.learned_constants, 0u);
}

TEST(FaultAnalyze, FanoutFreeFaultsAreProvenDetectableWithExactBounds) {
  const Netlist net = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
      "u = AND(a, b)\n"
      "y = OR(u, c)\n");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  EXPECT_EQ(fa.undetectable, 0u);
  // a s-a-0 (the representative of the collapsed u-s-a-0 class): excite
  // P(a=1) = 1/2, then sensitize b = 1 and c = 0 — all independent on a
  // fanout-free tree, so the interval must collapse on exactly 1/8.
  const FaultBound& b = bound_for(net, faults, fa, "a", StuckAt::Zero);
  EXPECT_EQ(b.verdict, FaultClass::ProvenDetectable);
  EXPECT_DOUBLE_EQ(b.lo, 0.125);
  EXPECT_DOUBLE_EQ(b.hi, 0.125);
}

TEST(FaultAnalyze, EveryFaultGetsAVerdictAndCountsAddUp) {
  for (const char* name : {"c17", "alu", "mult"}) {
    const Netlist net = make_circuit(name);
    const std::vector<Fault> faults = collapsed_fault_list(net);
    const FaultAnalysis fa = analyze_faults(net, faults);
    ASSERT_EQ(fa.bounds.size(), faults.size());
    EXPECT_EQ(fa.undetectable, fa.unexcitable + fa.unobservable);
    EXPECT_EQ(fa.undetectable + fa.detectable + fa.uncertain, faults.size());
    for (const FaultBound& b : fa.bounds) {
      EXPECT_LE(b.lo, b.hi);
      EXPECT_GE(b.lo, 0.0);
      EXPECT_LE(b.hi, 1.0);
      if (b.verdict == FaultClass::ProvenUndetectable) {
        EXPECT_EQ(b.hi, 0.0);
        EXPECT_NE(b.cause, UndetectableCause::None);
      }
      if (b.verdict == FaultClass::ProvenDetectable) {
        EXPECT_GT(b.lo, 0.0);
      }
    }
  }
}

// --- soundness against the exact miter oracle -------------------------------

TEST(FaultAnalyze, IntervalsContainExactDetectionProbability) {
  // The BDD miter computes the TRUE detection probability; every static
  // interval must contain it (modulo float dust), across biased tuples.
  for (int seed = 101; seed < 105; ++seed) {
    const Netlist net = random_net(static_cast<std::uint64_t>(seed), 7, 45);
    const std::vector<Fault> faults = collapsed_fault_list(net);
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 6151);
    std::uniform_real_distribution<double> uni(0.1, 0.9);
    FaultAnalyzeOptions fo;
    fo.input_probs.resize(net.inputs().size());
    for (double& p : fo.input_probs) p = uni(rng);
    const FaultAnalysis fa = analyze_faults(net, faults, fo);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const double exact =
          exact_detection_prob_bdd(net, faults[i], fo.input_probs);
      EXPECT_GE(exact, fa.bounds[i].lo - 1e-9)
          << "seed " << seed << " fault " << to_string(net, faults[i]);
      EXPECT_LE(exact, fa.bounds[i].hi + 1e-9)
          << "seed " << seed << " fault " << to_string(net, faults[i]);
    }
  }
}

TEST(FaultAnalyze, BundledCorpusSettlesAndStaysSound) {
  const char* data = std::getenv("PROTEST_DATA");
  ASSERT_NE(data, nullptr) << "PROTEST_DATA not set (see CMakeLists.txt)";
  const Netlist net = read_bench_file(std::string(data) + "/c17.bench");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  // c17 is irredundant: no fault is provably undetectable, and on a
  // circuit this small many faults settle as proven detectable.
  EXPECT_EQ(fa.undetectable, 0u);
  EXPECT_GT(fa.detectable, 0u);
  const InputProbs ip = uniform_input_probs(net, 0.5);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const double exact = exact_detection_prob_bdd(net, faults[i], ip);
    EXPECT_GE(exact, fa.bounds[i].lo - 1e-9) << to_string(net, faults[i]);
    EXPECT_LE(exact, fa.bounds[i].hi + 1e-9) << to_string(net, faults[i]);
  }
}

// --- fault-parallel determinism ---------------------------------------------

/// The netlists the thread-count tests run on: alu, a 2k-gate stress
/// netlist, and every bundled tests/data file — each spans several
/// 64-fault chunks except the smallest corpus files, which cover the
/// inline one-chunk case.
std::vector<std::pair<std::string, Netlist>> threading_corpus() {
  std::vector<std::pair<std::string, Netlist>> out;
  out.emplace_back("alu", make_circuit("alu"));
  out.emplace_back("stress2k",
                   make_random_circuit(stress_circuit_params(2000)));
  const char* data = std::getenv("PROTEST_DATA");
  EXPECT_NE(data, nullptr) << "PROTEST_DATA not set (see CMakeLists.txt)";
  if (data == nullptr) return out;
  for (const char* f : {"c17", "alu74181", "cla74182", "add74283", "par74280"})
    out.emplace_back(f,
                     read_bench_file(std::string(data) + "/" + f + ".bench"));
  return out;
}

void expect_same_analysis(const FaultAnalysis& a, const FaultAnalysis& b,
                          const std::string& where) {
  ASSERT_EQ(a.bounds.size(), b.bounds.size()) << where;
  for (std::size_t i = 0; i < a.bounds.size(); ++i) {
    // Bit-identical, not merely close: compare the raw doubles.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.bounds[i].lo),
              std::bit_cast<std::uint64_t>(b.bounds[i].lo))
        << where << " fault " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.bounds[i].hi),
              std::bit_cast<std::uint64_t>(b.bounds[i].hi))
        << where << " fault " << i;
    EXPECT_EQ(a.bounds[i].verdict, b.bounds[i].verdict) << where;
    EXPECT_EQ(a.bounds[i].cause, b.bounds[i].cause) << where;
    EXPECT_EQ(a.bounds[i].truncated, b.bounds[i].truncated) << where;
  }
  EXPECT_EQ(a.undetectable, b.undetectable) << where;
  EXPECT_EQ(a.unexcitable, b.unexcitable) << where;
  EXPECT_EQ(a.unobservable, b.unobservable) << where;
  EXPECT_EQ(a.detectable, b.detectable) << where;
  EXPECT_EQ(a.uncertain, b.uncertain) << where;
  EXPECT_EQ(a.truncated_sweeps, b.truncated_sweeps) << where;
  EXPECT_EQ(a.frechet_widened, b.frechet_widened) << where;
  EXPECT_EQ(a.learned_constants, b.learned_constants) << where;
}

FaultAnalysis analyze_with(const Netlist& net, std::span<const Fault> faults,
                           ParallelConfig parallel) {
  FaultAnalyzeOptions fo;
  fo.parallel = std::move(parallel);
  return analyze_faults(net, faults, fo);
}

TEST(FaultAnalyzeThreads, BitIdenticalForAnyThreadCount) {
  for (const auto& [name, net] : threading_corpus()) {
    const std::vector<Fault> faults = collapsed_fault_list(net);
    ParallelConfig serial;
    serial.num_threads = 1;
    const FaultAnalysis ref = analyze_with(net, faults, serial);
    for (const unsigned threads : {2u, 3u, 7u}) {
      ParallelConfig pc;
      pc.num_threads = threads;
      expect_same_analysis(ref, analyze_with(net, faults, pc),
                           name + " @" + std::to_string(threads));
    }
    // An injected shared executor (the service's seam) gives the same.
    ParallelConfig shared;
    shared.executor = std::make_shared<Executor>(3u);
    expect_same_analysis(ref, analyze_with(net, faults, shared),
                         name + " @shared");
  }
}

TEST(FaultAnalyzeThreads, EmptyFaultListAtAnyThreadCount) {
  const Netlist net = make_circuit("alu");
  for (const unsigned threads : {1u, 3u}) {
    ParallelConfig pc;
    pc.num_threads = threads;
    const FaultAnalysis fa = analyze_with(net, {}, pc);
    EXPECT_TRUE(fa.bounds.empty());
    EXPECT_EQ(fa.undetectable + fa.detectable + fa.uncertain, 0u);
    EXPECT_EQ(fa.frechet_widened, 0u);
  }
}

TEST(FaultAnalyzeThreads, BadFaultPinThrowsAtAnyThreadCount) {
  // The bad fault sits in the last of several chunks.
  const Netlist net = make_circuit("alu");
  std::vector<Fault> faults = collapsed_fault_list(net);
  ASSERT_GT(faults.size(), 128u);
  NodeId gate = 0;
  while (net.gate(gate).type == GateType::Input) ++gate;
  const int bad_pin = static_cast<int>(net.gate(gate).fanin.size());
  faults.push_back(Fault{gate, bad_pin, StuckAt::Zero});
  for (const unsigned threads : {1u, 3u, 7u}) {
    ParallelConfig pc;
    pc.num_threads = threads;
    EXPECT_THROW(analyze_with(net, faults, pc), std::invalid_argument)
        << threads;
  }
}

/// FNV-1a over raw bytes, for the golden hashes below.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  template <typename T>
  void mix(const T& v) {
    const auto* b = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof v; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
};

TEST(FaultSideGolden, MatchesTheSerialImplementation) {
  // Hashes of analyze_faults (bounds, census, widenings) and of plain and
  // pruned simulate_faults in both modes, recorded with the fault-serial
  // implementation that preceded the fault-parallel loops.  The parallel
  // loops must reproduce them at every thread count.
  const char* data = std::getenv("PROTEST_DATA");
  ASSERT_NE(data, nullptr) << "PROTEST_DATA not set (see CMakeLists.txt)";
  struct Golden {
    std::string name;
    Netlist net;
    std::uint64_t analyze, all;
  };
  std::vector<Golden> cases;
  cases.push_back({"alu", make_circuit("alu"), 0x83ce7ad590612747ull,
                   0xe7abad87a0ccf767ull});
  cases.push_back({"stress1k", make_random_circuit(stress_circuit_params(1000)),
                   0xf47394732ba9e09eull, 0x5b5335c8f77d4196ull});
  const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>>
      files[] = {
          {"c17", {0x59df50019b46b5b7ull, 0x2003aaf7d01c63f7ull}},
          {"alu74181", {0x83ce7ad590612747ull, 0xe7abad87a0ccf767ull}},
          {"cla74182", {0x89b50dfb83901d72ull, 0xbcbea15d042e87c6ull}},
          {"add74283", {0x0d6581a932598be4ull, 0x20bc8ea4e896375cull}},
          {"par74280", {0xd2d4061421a177c3ull, 0xfcdfa4425dc367c3ull}},
      };
  for (const auto& [f, hashes] : files)
    cases.push_back(
        {f, read_bench_file(std::string(data) + "/" + f + ".bench"),
         hashes.first, hashes.second});

  for (const Golden& g : cases) {
    const std::vector<Fault> faults = collapsed_fault_list(g.net);
    for (const unsigned threads : {1u, 3u}) {
      ParallelConfig pc;
      pc.num_threads = threads;
      FaultAnalyzeOptions fo;
      fo.input_probs = uniform_input_probs(g.net, 0.4);
      fo.parallel = pc;
      const FaultAnalysis fa = analyze_faults(g.net, faults, fo);
      Fnv h;
      for (const FaultBound& b : fa.bounds) {
        h.mix(b.lo);
        h.mix(b.hi);
        h.mix(b.verdict);
        h.mix(b.cause);
        h.mix(b.truncated);
      }
      for (const std::size_t c :
           {fa.undetectable, fa.unexcitable, fa.unobservable, fa.detectable,
            fa.uncertain, fa.truncated_sweeps, fa.frechet_widened,
            fa.learned_constants})
        h.mix(c);
      const std::string where = g.name + " @" + std::to_string(threads);
      EXPECT_EQ(h.h, g.analyze) << where;

      const PatternSet ps = PatternSet::weighted(fo.input_probs, 5000, 7);
      for (const FaultSimMode mode :
           {FaultSimMode::CountDetections, FaultSimMode::FirstDetection}) {
        for (const FaultSimResult& r :
             {simulate_faults(g.net, faults, ps, mode, pc),
              simulate_faults_pruned(g.net, faults, ps, mode, fa, pc)}) {
          for (const std::uint64_t c : r.detect_count) h.mix(c);
          for (const std::int64_t c : r.first_detect) h.mix(c);
        }
      }
      EXPECT_EQ(h.h, g.all) << where;
    }
  }
}

// --- oracles: the serial learning loop and the per-fault sweep --------------
//
// learn_constants speculates across workers and analyze_faults sweeps
// whole fault groups at once; both must reproduce, bit for bit, the plain
// loops below, which are the implementations they replaced.

/// The serial learning loop: every non-input node in id order, refuted at
/// 1 then at 0, pinned on the first refutation, until the assumption
/// budget is spent.
std::vector<signed char> oracle_learn_constants(const Netlist& net,
                                                const ImplicationOptions& opts,
                                                ImplicationStats* stats) {
  ImplicationEngine eng(net, propagate_constants(net), opts);
  for (NodeId n = 0; n < static_cast<NodeId>(net.size()); ++n) {
    if (net.is_input(n)) continue;
    if (eng.base()[n] >= 0) continue;
    if (eng.stats().assumptions >= opts.max_assumptions) break;
    if (eng.proves_conflict(n, true)) {
      eng.pin(n, false);
    } else if (eng.proves_conflict(n, false)) {
      eng.pin(n, true);
    }
  }
  if (stats) *stats = eng.stats();
  return eng.base();
}

/// The per-fault analysis: one event sweep per fault, serial.
class OracleAnalyzer {
 public:
  struct Iv {
    double lo = 0.0;
    double hi = 1.0;
  };
  struct Ev {
    Iv iv;
    std::uint64_t sig = 0;
  };

  OracleAnalyzer(const Netlist& net, const FaultAnalyzeOptions& opts)
      : net_(net), opts_(opts), ev_(net.size()),
        ev_epoch_(net.size(), 0), queued_epoch_(net.size(), 0) {
    const InputProbs probs = opts.input_probs.empty()
                                 ? uniform_input_probs(net, opts.p)
                                 : opts.input_probs;
    robust_ = propagate_constants(net);
    learned_ = robust_;
    if (opts.learn) {
      ImplicationStats st;
      learned_ = oracle_learn_constants(net, opts.implication, &st);
      out_.learned_constants = st.learned;
    }
    sb_ = signal_prob_bounds(net, probs);
    for (NodeId n = 0; n < static_cast<NodeId>(net.size()); ++n) {
      if (learned_[n] < 0) continue;
      sb_.lo[n] = sb_.hi[n] = static_cast<double>(learned_[n]);
      sb_.sig[n] = 0;
    }
    const NodeId n = static_cast<NodeId>(net.size());
    plain_reach_.assign(n, 0);
    obs_reach_.assign(n, 0);
    for (NodeId id = n; id-- > 0;) {
      char plain = net.is_output(id) ? 1 : 0;
      char obs = plain;
      for (const NodeId c : net.fanout(id)) {
        plain |= plain_reach_[c];
        obs |= static_cast<char>(robust_[c] < 0 && obs_reach_[c]);
      }
      plain_reach_[id] = plain;
      obs_reach_[id] = obs;
    }
  }

  FaultAnalysis run(std::span<const Fault> faults) {
    for (const Fault& f : faults) out_.bounds.push_back(analyze(f));
    for (const FaultBound& b : out_.bounds) {
      switch (b.verdict) {
        case FaultClass::ProvenUndetectable:
          ++out_.undetectable;
          if (b.cause == UndetectableCause::Unexcitable)
            ++out_.unexcitable;
          else
            ++out_.unobservable;
          break;
        case FaultClass::ProvenDetectable:
          ++out_.detectable;
          break;
        case FaultClass::Uncertain:
          ++out_.uncertain;
          break;
      }
      if (b.truncated) ++out_.truncated_sweeps;
    }
    return out_;
  }

 private:
  static std::uint64_t stem_bit(NodeId n) {
    std::uint64_t z = n + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return 1ull << (z & 63u);
  }
  static Iv clamp01(Iv v) {
    v.lo = std::clamp(v.lo, 0.0, 1.0);
    v.hi = std::clamp(v.hi, 0.0, 1.0);
    if (v.lo > v.hi) v.lo = v.hi;
    return v;
  }
  static Iv and_frechet(Iv a, Iv b) {
    return {std::max(0.0, a.lo + b.lo - 1.0), std::min(a.hi, b.hi)};
  }
  static FaultBound undetectable(UndetectableCause cause) {
    return {0.0, 0.0, FaultClass::ProvenUndetectable, cause, false};
  }

  FaultBound analyze(const Fault& f) {
    const NodeId site = f.is_stem() ? f.node : net_.gate(f.node).fanin[f.pin];
    const Iv exc = f.sa == StuckAt::Zero
                       ? Iv{sb_.lo[site], sb_.hi[site]}
                       : Iv{1.0 - sb_.hi[site], 1.0 - sb_.lo[site]};
    if (exc.hi <= 0.0) return undetectable(UndetectableCause::Unexcitable);
    const bool origin_free = robust_[site] < 0;
    if (f.is_stem()) {
      if (origin_free ? !obs_reach_[f.node] : !plain_reach_[f.node])
        return undetectable(UndetectableCause::Unobservable);
    } else {
      if (origin_free && robust_[f.node] >= 0)
        return undetectable(UndetectableCause::Unobservable);
      if (origin_free ? !obs_reach_[f.node] : !plain_reach_[f.node])
        return undetectable(UndetectableCause::Unobservable);
    }
    return sweep(f, site, exc, origin_free);
  }

  Ev combine_single(NodeId gate, int pin, Ev e) {
    const Gate& g = net_.gate(gate);
    const GateType t = g.type;
    if (t == GateType::Buf || t == GateType::Not || t == GateType::Xor ||
        t == GateType::Xnor)
      return e;
    const bool need_one = t == GateType::And || t == GateType::Nand;
    Iv sens{1.0, 1.0};
    std::uint64_t sens_sig = 0;
    for (std::size_t k = 0; k < g.fanin.size(); ++k) {
      if (static_cast<int>(k) == pin) continue;
      const NodeId f = g.fanin[k];
      const Iv side = need_one ? Iv{sb_.lo[f], sb_.hi[f]}
                               : Iv{1.0 - sb_.hi[f], 1.0 - sb_.lo[f]};
      if ((sens_sig & sb_.sig[f]) == 0) {
        sens.lo *= side.lo;
        sens.hi *= side.hi;
      } else {
        ++out_.frechet_widened;
        sens = and_frechet(sens, side);
      }
      sens_sig |= sb_.sig[f];
    }
    Ev out;
    if ((e.sig & sens_sig) == 0) {
      out.iv = {e.iv.lo * sens.lo, e.iv.hi * sens.hi};
    } else {
      ++out_.frechet_widened;
      out.iv = and_frechet(e.iv, sens);
    }
    out.iv = clamp01(out.iv);
    out.sig = e.sig | sens_sig;
    return out;
  }

  void mark(NodeId n, Ev e, double& det_lo, double& det_hi_sum) {
    ev_[n] = e;
    ev_epoch_[n] = epoch_;
    if (net_.is_output(n)) {
      det_lo = std::max(det_lo, e.iv.lo);
      det_hi_sum += e.iv.hi;
    }
  }

  void push_consumers(NodeId n) {
    for (const NodeId c : net_.fanout(n)) {
      if (queued_epoch_[c] != epoch_) {
        queued_epoch_[c] = epoch_;
        heap_.push_back(c);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }

  FaultBound sweep(const Fault& f, NodeId site, Iv exc, bool origin_free) {
    ++epoch_;
    heap_.clear();
    double det_lo = 0.0, det_hi_sum = 0.0;
    const Ev origin{exc, sb_.sig[site] | stem_bit(site)};
    if (f.is_stem()) {
      mark(f.node, origin, det_lo, det_hi_sum);
      push_consumers(f.node);
    } else {
      const Ev eg = combine_single(f.node, f.pin, origin);
      if (eg.iv.hi <= 0.0) return undetectable(UndetectableCause::Unobservable);
      mark(f.node, eg, det_lo, det_hi_sum);
      push_consumers(f.node);
    }
    std::size_t visited = 0;
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const NodeId c = heap_.back();
      heap_.pop_back();
      if (ev_epoch_[c] == epoch_) continue;
      if (origin_free && robust_[c] >= 0) continue;
      if (++visited > opts_.max_cone_nodes) {
        FaultBound b{0.0, exc.hi, FaultClass::Uncertain,
                     UndetectableCause::None, true};
        if (b.hi <= 0.0) {
          b.verdict = FaultClass::ProvenUndetectable;
          b.cause = UndetectableCause::Unexcitable;
        }
        return b;
      }
      const Gate& g = net_.gate(c);
      int affected_pins = 0;
      int single_pin = -1;
      std::vector<NodeId> drivers;
      for (std::size_t k = 0; k < g.fanin.size(); ++k) {
        const NodeId d = g.fanin[k];
        if (ev_epoch_[d] != epoch_) continue;
        ++affected_pins;
        single_pin = static_cast<int>(k);
        if (std::find(drivers.begin(), drivers.end(), d) == drivers.end())
          drivers.push_back(d);
      }
      if (affected_pins == 0) continue;
      Ev e;
      if (affected_pins == 1) {
        e = combine_single(c, single_pin, ev_[drivers[0]]);
      } else {
        ++out_.frechet_widened;
        double hi = 0.0;
        std::uint64_t sig = 0;
        for (const NodeId d : drivers) {
          hi += ev_[d].iv.hi;
          sig |= ev_[d].sig;
        }
        for (const NodeId d : g.fanin) sig |= sb_.sig[d];
        e.iv = clamp01({0.0, hi});
        e.sig = sig;
      }
      if (e.iv.hi <= 0.0) continue;
      mark(c, e, det_lo, det_hi_sum);
      push_consumers(c);
    }
    Iv det{det_lo, std::min({1.0, det_hi_sum, exc.hi})};
    det = clamp01(det);
    FaultBound b{det.lo, det.hi, FaultClass::Uncertain,
                 UndetectableCause::None, false};
    if (det.hi <= 0.0) {
      b.verdict = FaultClass::ProvenUndetectable;
      b.cause = UndetectableCause::Unobservable;
    } else if (det.lo > 0.0) {
      b.verdict = FaultClass::ProvenDetectable;
    }
    return b;
  }

  const Netlist& net_;
  const FaultAnalyzeOptions& opts_;
  std::vector<signed char> robust_, learned_;
  SignalProbBounds sb_;
  std::vector<char> plain_reach_, obs_reach_;
  std::vector<Ev> ev_;
  std::vector<std::uint32_t> ev_epoch_, queued_epoch_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> heap_;
  FaultAnalysis out_;
};

FaultAnalysis oracle_analyze_faults(const Netlist& net,
                                    std::span<const Fault> faults,
                                    const FaultAnalyzeOptions& opts) {
  return OracleAnalyzer(net, opts).run(faults);
}

// --- differential suite -----------------------------------------------------

/// Streams `parts` into one string (test labels and generated netlists).
template <typename... T>
std::string cat(const T&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// `net` with constant fanins wired into some gates: a controlling one
/// (AND/NAND get CONST0, OR/NOR CONST1) into every 11th such gate, which
/// makes robust constants and so fault groups whose origin is not
/// robust-free, and a non-controlling one into every 7th.
Netlist inject_constants(const Netlist& net) {
  std::istringstream in(write_bench_string(net));
  std::string out = "kc0 = CONST0()\nkc1 = CONST1()\n";
  std::size_t gate = 0;
  for (std::string line; std::getline(in, line);) {
    const bool and_like = line.find("= AND(") != std::string::npos ||
                          line.find("= NAND(") != std::string::npos;
    const bool or_like = line.find("= OR(") != std::string::npos ||
                         line.find("= NOR(") != std::string::npos;
    if (and_like || or_like) {
      ++gate;
      const char* controlling = and_like ? "kc0" : "kc1";
      const char* passive = and_like ? "kc1" : "kc0";
      const char* extra = gate % 11 == 0  ? controlling
                          : gate % 7 == 0 ? passive
                                          : nullptr;
      if (extra != nullptr) line.insert(line.rfind(')'), cat(", ", extra));
    }
    out += line;
    out += '\n';
  }
  return read_bench_string(out);
}

/// A `depth`-deep chain c_i = AND/NAND(c_{i-1}, a_i) over fresh inputs
/// (alternating), each link tapped by an output XOR(c_i, c_{i-1}).  Side
/// inputs are fanout-free, so every event step is an exact product and an
/// event halves per link at p = 0.5: it underflows to 0 some 1075 links
/// from its origin, at a depth that depends on the event's magnitude, so
/// the faults of one gate disagree there.  The taps make the disagreement
/// matter: a tap whose two drivers are both affected takes the union
/// bound, with one affected driver it passes the event through.
Netlist lane_divergence_chain(std::size_t depth) {
  std::ostringstream src;
  for (std::size_t i = 0; i <= depth; ++i) src << "INPUT(a" << i << ")\n";
  src << "OUTPUT(c" << depth << ")\n";
  for (std::size_t i = 1; i <= depth; ++i) src << "OUTPUT(t" << i << ")\n";
  src << "c0 = BUF(a0)\n";
  for (std::size_t i = 1; i <= depth; ++i) {
    src << 'c' << i << (i % 2 ? " = AND(c" : " = NAND(c") << i - 1 << ", a" << i
        << ")\n";
    src << 't' << i << " = XOR(c" << i << ", c" << i - 1 << ")\n";
  }
  return read_bench_string(src.str());
}

/// Every netlist of the differential suite.
std::vector<std::pair<std::string, Netlist>> differential_corpus() {
  std::vector<std::pair<std::string, Netlist>> out;
  for (const char* name : {"c17", "alu", "mult", "comp", "sn7485", "mult8"})
    out.emplace_back(name, make_circuit(name));
  const char* data = std::getenv("PROTEST_DATA");
  EXPECT_NE(data, nullptr) << "PROTEST_DATA not set (see CMakeLists.txt)";
  if (data != nullptr)
    for (const char* f :
         {"c17", "alu74181", "cla74182", "add74283", "par74280"})
      out.emplace_back(f, read_bench_file(std::string(data) + "/" + f +
                                          ".bench"));
  out.emplace_back("stress1k",
                   make_random_circuit(stress_circuit_params(1000)));
  out.emplace_back("stress2k",
                   make_random_circuit(stress_circuit_params(2000)));
  out.emplace_back("alu+const", inject_constants(make_circuit("alu")));
  out.emplace_back("mult8+const", inject_constants(make_circuit("mult8")));
  out.emplace_back("stress1k+const", inject_constants(make_random_circuit(
                                         stress_circuit_params(1000))));
  out.emplace_back("chain1200", lane_divergence_chain(1200));
  return out;
}

/// The thread settings every differential runs at.
std::vector<std::pair<std::string, ParallelConfig>> thread_settings() {
  std::vector<std::pair<std::string, ParallelConfig>> out;
  for (const unsigned threads : {1u, 2u, 3u, 7u}) {
    ParallelConfig pc;
    pc.num_threads = threads;
    out.emplace_back(cat('@', threads), pc);
  }
  ParallelConfig shared;
  shared.executor = std::make_shared<Executor>(3u);
  out.emplace_back("@shared", shared);
  return out;
}

void expect_same_stats(const ImplicationStats& a, const ImplicationStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.assumptions, b.assumptions) << where;
  EXPECT_EQ(a.implications, b.implications) << where;
  EXPECT_EQ(a.conflicts, b.conflicts) << where;
  EXPECT_EQ(a.learned, b.learned) << where;
}

TEST(LearnDifferential, MatchesTheSerialLoopForEveryBudgetAndThreadCount) {
  // max_assumptions 0 and 1 stop the serial loop at once and inside the
  // first node; 100 and 1000 run out mid-netlist, so the speculative loop
  // must hand over to the serial one at the right node.
  for (const auto& [name, net] : differential_corpus()) {
    for (const std::size_t budget :
         {std::size_t{0}, std::size_t{1}, std::size_t{100}, std::size_t{1000},
          ImplicationOptions{}.max_assumptions}) {
      ImplicationOptions io;
      io.max_assumptions = budget;
      ImplicationStats want_stats;
      const std::vector<signed char> want =
          oracle_learn_constants(net, io, &want_stats);
      for (const auto& [label, pc] : thread_settings()) {
        const std::string where =
            cat(name, " max_assumptions ", budget, ' ', label);
        ImplicationStats got_stats;
        EXPECT_EQ(learn_constants(net, io, &got_stats, pc), want) << where;
        expect_same_stats(got_stats, want_stats, where);
      }
    }
  }
}

TEST(SweepDifferential, MatchesThePerFaultSweepForEveryConeBudget) {
  // Budgets 1 and 2 truncate nearly every sweep at its first nodes, 64
  // some, 2048 few; on the chain, a budget past its depth lets sweeps run
  // on to where the lanes of one gate underflow at different links.  The
  // structural (uncollapsed) lists, with more faults per gate, run at 1
  // and 3 threads.
  for (const auto& [name, net] : differential_corpus()) {
    for (const bool collapsed : {true, false}) {
      if (!collapsed && name == "stress2k") continue;  // stress1k covers it
      const std::vector<Fault> faults =
          collapsed ? collapsed_fault_list(net) : full_fault_list(net);
      std::vector<std::size_t> budgets = {1, 2, 64, 2048};
      if (name == "chain1200") {
        budgets.push_back(std::size_t{1} << 20);
        if (!collapsed) budgets = {64, std::size_t{1} << 20};
      }
      for (const std::size_t budget : budgets) {
        FaultAnalyzeOptions fo;
        fo.max_cone_nodes = budget;
        // Bounded learning keeps the big netlists quick; the learning
        // differential above covers the full budget.
        fo.implication.max_assumptions = 2000;
        const FaultAnalysis want = oracle_analyze_faults(net, faults, fo);
        for (const auto& [label, pc] : thread_settings()) {
          if (!collapsed && label != "@1" && label != "@3") continue;
          fo.parallel = pc;
          expect_same_analysis(
              want, analyze_faults(net, faults, fo),
              cat(name, collapsed ? " collapsed" : " full",
                  " max_cone_nodes ", budget, ' ', label));
        }
      }
    }
  }
}

TEST(SweepDifferential, ChainMatchesUnderBiasedTuples) {
  // Biased tuples move the links where events underflow: at p = 0.3 an
  // event shrinks ~1.7 bits per link and at 0.4 ~1.3 bits, so both still
  // underflow inside the chain.
  const Netlist net = lane_divergence_chain(1200);
  const std::vector<Fault> faults = full_fault_list(net);
  FaultAnalyzeOptions fo;
  fo.max_cone_nodes = std::size_t{1} << 20;
  for (const double p : {0.3, 0.4}) {
    fo.p = p;
    const FaultAnalysis want = oracle_analyze_faults(net, faults, fo);
    for (const unsigned threads : {1u, 3u}) {
      fo.parallel.num_threads = threads;
      expect_same_analysis(want, analyze_faults(net, faults, fo),
                           cat("chain p ", p, " @", threads));
    }
  }
}

// --- bounded estimator ------------------------------------------------------

TEST(DetectProbsBounded, ClampsIntoIntervalAndZeroesProvenUndetectable) {
  const Netlist net = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
      "t = XOR(a, a)\n"
      "y = OR(t, b)\n");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  const InputProbs ip = uniform_input_probs(net, 0.5);
  const ProtestEstimator est(net);
  const std::vector<double> p = est.signal_probs(ip);
  const Observability obs = compute_observability(net, p);
  const std::vector<double> dp =
      detection_probs_bounded(net, faults, p, obs, fa);
  ASSERT_EQ(dp.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultBound& b = fa.bounds[i];
    if (b.verdict == FaultClass::ProvenUndetectable) {
      EXPECT_EQ(dp[i], 0.0) << to_string(net, faults[i]);
    }
    EXPECT_GE(dp[i], b.lo) << to_string(net, faults[i]);
    EXPECT_LE(dp[i], b.hi) << to_string(net, faults[i]);
  }
  EXPECT_THROW(
      detection_probs_bounded(net, std::span<const Fault>(faults).first(1), p,
                              obs, fa),
      std::invalid_argument);
}

// --- pruned fault simulation ------------------------------------------------

TEST(FaultSimPruned, SkipsProvenUndetectableAndMatchesPlainElsewhere) {
  const Netlist net = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
      "t = XOR(a, a)\n"
      "u = AND(b, c)\n"
      "y = OR(t, u)\n");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  ASSERT_GT(fa.undetectable, 0u);
  const PatternSet ps = PatternSet::exhaustive(net.inputs().size());
  const FaultSimResult plain =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  const FaultSimResult pruned =
      simulate_faults_pruned(net, faults, ps, FaultSimMode::CountDetections, fa);
  ASSERT_EQ(pruned.detect_count.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (fa.bounds[i].verdict == FaultClass::ProvenUndetectable) {
      // The proof and the simulator must agree: zero either way, and the
      // pruned run never touched the fault.
      EXPECT_EQ(plain.detect_count[i], 0u) << to_string(net, faults[i]);
      EXPECT_EQ(pruned.detect_count[i], 0u);
      EXPECT_EQ(pruned.first_detect[i], -1);
    } else {
      EXPECT_EQ(pruned.detect_count[i], plain.detect_count[i])
          << to_string(net, faults[i]);
      EXPECT_EQ(pruned.first_detect[i], plain.first_detect[i]);
    }
  }
}

TEST(FaultSimPruned, OracleThrowsOnImpossibleInterval) {
  const Netlist net = make_circuit("c17");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  FaultAnalysis fa = analyze_faults(net, faults);
  // Sabotage one interval to exclude the true detection probability by
  // far more than the 6-sigma slack: the cross-check must fail loudly.
  // (4096 patterns -> slack ~0.047; no c17 fault detects above ~0.95.)
  fa.bounds[0].lo = 0.999;
  fa.bounds[0].hi = 1.0;
  fa.bounds[0].verdict = FaultClass::ProvenDetectable;
  const PatternSet ps = PatternSet::random(net.inputs().size(), 4096, 99);
  EXPECT_THROW(simulate_faults_pruned(net, faults, ps,
                                      FaultSimMode::CountDetections, fa),
               std::logic_error);
  EXPECT_THROW(
      simulate_faults_pruned(net, std::span<const Fault>(faults).first(2), ps,
                             FaultSimMode::CountDetections, fa),
      std::invalid_argument);
}

TEST(FaultSimPruned, OracleThrowsWithThreads) {
  // Sabotage a fault in a late chunk of a several-chunk list: the oracle
  // runs after the parallel simulation joins, so it still fires.
  const Netlist net = make_circuit("alu");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  FaultAnalysis fa = analyze_faults(net, faults);
  const PatternSet ps = PatternSet::random(net.inputs().size(), 4096, 99);
  ParallelConfig pc;
  pc.num_threads = 3;
  const FaultSimResult count = simulate_faults_pruned(
      net, faults, ps, FaultSimMode::CountDetections, fa, pc);
  std::size_t victim = faults.size();
  for (std::size_t i = faults.size(); i-- > 64;) {
    if (count.detect_count[i] < ps.num_patterns() / 2) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, faults.size());
  fa.bounds[victim] = {0.999, 1.0, FaultClass::ProvenDetectable,
                       UndetectableCause::None, false};
  EXPECT_THROW(simulate_faults_pruned(net, faults, ps,
                                      FaultSimMode::CountDetections, fa, pc),
               std::logic_error);
}

}  // namespace
}  // namespace protest
