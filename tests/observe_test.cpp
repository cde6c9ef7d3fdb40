// Observability s(x), detection probabilities and the miter transform
// (sect. 3).
#include <gtest/gtest.h>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "netlist/builder.hpp"
#include "observe/detect.hpp"
#include "observe/miter.hpp"
#include "prob/exact.hpp"
#include "prob/naive.hpp"
#include "prob/protest_estimator.hpp"
#include "sim/fault_sim.hpp"

namespace protest {
namespace {

/// Exhaustive-simulation detection probability (the P_SIM oracle).
std::vector<double> psim_exhaustive(const Netlist& net,
                                    std::span<const Fault> faults) {
  const PatternSet all = PatternSet::exhaustive(net.inputs().size());
  return simulate_faults(net, faults, all, FaultSimMode::CountDetections)
      .detection_probs();
}

TEST(Observability, ChainOfBuffers) {
  // i -> BUF -> NOT -> PO: every stem fully observable.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId b = bld.buf(a);
  const NodeId c = bld.inv(b);
  bld.output(c);
  const Netlist net = bld.build();
  const auto p = naive_signal_probs(net, uniform_input_probs(net));
  const auto obs = compute_observability(net, p);
  for (NodeId n = 0; n < net.size(); ++n) EXPECT_DOUBLE_EQ(obs.stem[n], 1.0);
}

TEST(Observability, AndGateSideInput) {
  // y = AND(a, b), p_b = 0.25: s(a-pin) = 0.25.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId b = bld.input("b");
  const NodeId y = bld.and2(a, b);
  bld.output(y);
  const Netlist net = bld.build();
  const double ip[] = {0.5, 0.25};
  const auto p = naive_signal_probs(net, ip);
  const auto obs = compute_observability(net, p);
  EXPECT_DOUBLE_EQ(obs.pin[y][0], 0.25);
  EXPECT_DOUBLE_EQ(obs.pin[y][1], 0.5);
  EXPECT_DOUBLE_EQ(obs.stem[a], 0.25);
}

TEST(Observability, PaperXorTransferUnderestimates) {
  // Paper formula on XOR: f0 (*) f1 = 1 - 2 p (1-p) < 1; Boolean
  // difference gives exactly 1.  This is the documented fig. 6 bias.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId b = bld.input("b");
  bld.output(bld.xor2(a, b));
  const Netlist net = bld.build();
  const auto p = naive_signal_probs(net, uniform_input_probs(net, 0.5));
  const NodeId y = net.outputs()[0];
  EXPECT_DOUBLE_EQ(
      gate_transfer(net, y, 0, p, TransferModel::PaperArithmetic), 0.5);
  EXPECT_DOUBLE_EQ(
      gate_transfer(net, y, 0, p, TransferModel::BooleanDifference), 1.0);
}

TEST(Observability, StemModelsDifferOnReconvergence) {
  // Model A (xor-chain) can cancel reconvergent paths; model B cannot.
  const Netlist net = make_c17();
  const auto p = naive_signal_probs(net, uniform_input_probs(net));
  ObservabilityOptions a, b;
  a.stem = StemModel::XorChain;
  b.stem = StemModel::OrChain;
  const auto oa = compute_observability(net, p, a);
  const auto ob = compute_observability(net, p, b);
  const NodeId stem11 = net.find("11");  // fans out to two gates
  EXPECT_LE(oa.stem[stem11], ob.stem[stem11] + 1e-12);
  for (NodeId n = 0; n < net.size(); ++n) {
    EXPECT_GE(oa.stem[n], 0.0);
    EXPECT_LE(oa.stem[n], 1.0);
  }
}

TEST(DetectionProbs, ExactOnTreeCircuit) {
  // On a fanout-free AND-gate circuit with BooleanDifference transfer the
  // estimate equals the exhaustive-simulation value for stem faults.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId b = bld.input("b");
  const NodeId c = bld.input("c");
  const NodeId y = bld.and2(bld.and2(a, b), c);
  bld.output(y);
  const Netlist net = bld.build();
  const auto faults = structural_fault_list(net);
  const auto p = naive_signal_probs(net, uniform_input_probs(net));
  ObservabilityOptions opts;
  opts.transfer = TransferModel::BooleanDifference;
  const auto obs = compute_observability(net, p, opts);
  const auto est = detection_probs(net, faults, p, obs);
  const auto ref = psim_exhaustive(net, faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_NEAR(est[i], ref[i], 1e-12) << to_string(net, faults[i]);
}

TEST(DetectionProbs, StuckAtZeroAndOneComplementary) {
  const Netlist net = make_c17();
  const auto p = naive_signal_probs(net, uniform_input_probs(net));
  const auto obs = compute_observability(net, p);
  for (NodeId n = 0; n < net.size(); ++n) {
    const Fault f0{n, -1, StuckAt::Zero};
    const Fault f1{n, -1, StuckAt::One};
    const double d0 = detection_prob(net, f0, p, obs);
    const double d1 = detection_prob(net, f1, p, obs);
    EXPECT_NEAR(d0 + d1, obs.stem[n], 1e-12) << n;
  }
}

TEST(Miter, ExactDetectionEqualsExhaustiveSim) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const auto ref = psim_exhaustive(net, faults);
  const auto ip = uniform_input_probs(net, 0.5);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const double d = exact_detection_prob_bdd(net, faults[i], ip);
    EXPECT_NEAR(d, ref[i], 1e-12) << to_string(net, faults[i]);
  }
}

TEST(Miter, ExactDetectionRandomCircuits) {
  for (std::uint64_t seed : {11u, 12u}) {
    RandomCircuitParams params;
    params.num_inputs = 6;
    params.num_gates = 35;
    params.seed = seed;
    const Netlist net = make_random_circuit(params);
    const auto faults = structural_fault_list(net);
    const auto ref = psim_exhaustive(net, faults);
    const auto ip = uniform_input_probs(net, 0.5);
    for (std::size_t i = 0; i < faults.size(); i += 3) {  // sample
      const double d = exact_detection_prob_bdd(net, faults[i], ip);
      EXPECT_NEAR(d, ref[i], 1e-12)
          << "seed " << seed << " " << to_string(net, faults[i]);
    }
  }
}

TEST(Miter, EstimatedDetectionTracksExact) {
  // The miter doubles the circuit and correlates every node with its
  // faulty twin, so conditioning needs a deeper W than on c17 itself.
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const auto ip = uniform_input_probs(net, 0.5);
  ProtestParams params;
  params.maxvers = 10;
  params.max_candidates = 32;
  double total_err = 0.0;
  for (const Fault& f : faults) {
    const double exact = exact_detection_prob_bdd(net, f, ip);
    const double est = estimated_detection_prob_miter(net, f, ip, params);
    EXPECT_NEAR(est, exact, 0.30) << to_string(net, f);
    total_err += std::abs(est - exact);
  }
  EXPECT_LT(total_err / static_cast<double>(faults.size()), 0.05);
}

TEST(Miter, UnobservableFaultGetsConstMiter) {
  // A node with no path to any output: detection probability 0.
  Netlist net;
  const NodeId a = net.add_input("a");
  const NodeId dead = net.add_gate(GateType::Not, {a}, "dead");
  (void)dead;
  const NodeId y = net.add_gate(GateType::Buf, {a}, "y");
  net.mark_output(y);
  net.finalize();
  const Fault f{net.find("dead"), -1, StuckAt::One};
  const double ip[] = {0.5};
  EXPECT_DOUBLE_EQ(exact_detection_prob_bdd(net, f, ip), 0.0);
}

}  // namespace
}  // namespace protest
