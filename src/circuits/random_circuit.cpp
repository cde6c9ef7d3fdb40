#include "circuits/random_circuit.hpp"

#include <random>
#include <stdexcept>
#include <string>

namespace protest {

Netlist make_random_circuit(const RandomCircuitParams& params) {
  if (params.num_inputs == 0 || params.num_gates == 0)
    throw std::invalid_argument("make_random_circuit: empty circuit");
  if (params.max_fanin < 2)
    throw std::invalid_argument("make_random_circuit: max_fanin < 2");
  if (params.reconvergence_fraction > 0.0 && params.reconvergence_depth == 0)
    throw std::invalid_argument("make_random_circuit: reconvergence_depth 0");

  std::mt19937_64 rng(params.seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  Netlist net;
  net.reserve(params.num_inputs + params.num_gates);
  // Appended, not "I" + to_string(i): gcc 12 at -O3 flags the inlined
  // prepend's memcpy with a false -Wrestrict.
  for (std::size_t i = 0; i < params.num_inputs; ++i)
    net.add_input(std::string("I").append(std::to_string(i)));

  // Every shape knob that defaults to "off" guards its uni(rng) draw
  // behind `param > 0`, so default parameters consume the exact draw
  // sequence of the pre-knob generator — seeded circuits stay stable.
  std::size_t gates_made = 0;
  while (gates_made < params.num_gates) {
    const NodeId limit = static_cast<NodeId>(net.size());
    auto pick = [&]() -> NodeId {
      // Fanout skew: hammer a few fixed hub nodes.
      if (params.fanout_skew > 0.0 && uni(rng) < params.fanout_skew) {
        const std::size_t hubs = std::min<std::size_t>(limit, 4);
        return static_cast<NodeId>(std::uniform_int_distribution<std::size_t>(
            0, hubs - 1)(rng));
      }
      // Bias toward recent nodes for depth; fall back to uniform.
      if (uni(rng) < 0.6) {
        const std::size_t window =
            std::min<std::size_t>(limit, 2 * params.num_inputs + 4);
        return static_cast<NodeId>(
            limit - 1 - std::uniform_int_distribution<std::size_t>(
                            0, window - 1)(rng));
      }
      return std::uniform_int_distribution<NodeId>(0, limit - 1)(rng);
    };

    // Forced reconvergence: two divergent paths from one stem, rejoined.
    const std::size_t gadget_gates = 2 * params.reconvergence_depth + 1;
    if (params.reconvergence_fraction > 0.0 &&
        gates_made + gadget_gates <= params.num_gates &&
        uni(rng) < params.reconvergence_fraction) {
      const NodeId stem = pick();
      NodeId a = stem;
      NodeId b = stem;
      for (unsigned d = 0; d < params.reconvergence_depth; ++d) {
        a = net.add_gate(uni(rng) < 0.5 ? GateType::Not : GateType::Buf, {a});
        b = net.add_gate(uni(rng) < 0.5 ? GateType::And : GateType::Or,
                         {b, pick()});
        gates_made += 2;
      }
      static constexpr GateType kJoins[] = {GateType::And, GateType::Or,
                                            GateType::Xor, GateType::Nand};
      net.add_gate(kJoins[std::uniform_int_distribution<int>(0, 3)(rng)],
                   {a, b});
      ++gates_made;
      continue;
    }

    if (uni(rng) < params.inverter_fraction) {
      net.add_gate(uni(rng) < 0.7 ? GateType::Not : GateType::Buf, {pick()});
      ++gates_made;
      continue;
    }
    GateType t;
    if (uni(rng) < params.xor_fraction) {
      t = uni(rng) < 1.0 - params.xnor_ratio ? GateType::Xor : GateType::Xnor;
    } else {
      static constexpr GateType kTypes[] = {GateType::And, GateType::Nand,
                                            GateType::Or, GateType::Nor};
      t = kTypes[std::uniform_int_distribution<int>(0, 3)(rng)];
    }
    const unsigned fanin =
        std::uniform_int_distribution<unsigned>(2, params.max_fanin)(rng);
    std::vector<NodeId> ins;
    ins.reserve(fanin);
    for (unsigned k = 0; k < fanin; ++k) ins.push_back(pick());
    net.add_gate(t, std::move(ins));
    ++gates_made;
  }

  // Sinks become outputs; guarantees observability of every node.
  bool any = false;
  std::vector<char> has_fanout(net.size(), 0);
  for (NodeId n = 0; n < net.size(); ++n)
    for (NodeId f : net.gate(n).fanin) has_fanout[f] = 1;
  for (NodeId n = 0; n < net.size(); ++n) {
    if (!has_fanout[n] && !net.is_input(n)) {
      net.mark_output(n);
      any = true;
    }
  }
  if (!any) net.mark_output(static_cast<NodeId>(net.size() - 1));
  net.finalize();
  return net;
}

RandomCircuitParams stress_circuit_params(std::size_t num_gates,
                                          std::uint64_t seed) {
  RandomCircuitParams p;
  p.num_inputs = 64;
  p.num_gates = num_gates;
  p.max_fanin = 4;
  p.inverter_fraction = 0.15;
  p.xor_fraction = 0.10;
  p.seed = seed;
  return p;
}

}  // namespace protest
