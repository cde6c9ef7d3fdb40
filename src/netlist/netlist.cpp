#include "netlist/netlist.hpp"

#include <algorithm>
#include <stdexcept>

#include "netlist/compiled.hpp"

namespace protest {

void Netlist::check_open() const {
  if (finalized_)
    throw std::logic_error("Netlist: structure is frozen after finalize()");
}

void Netlist::reserve(std::size_t num_nodes) {
  check_open();
  gates_.reserve(num_nodes);
}

NodeId Netlist::add_input(std::string name) {
  check_open();
  const NodeId id = static_cast<NodeId>(gates_.size());
  gates_.push_back(Gate{GateType::Input, {}, std::move(name)});
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_gate(GateType type, std::vector<NodeId> fanin,
                         std::string name) {
  check_open();
  if (type == GateType::Input)
    throw std::invalid_argument("Netlist: use add_input for primary inputs");
  const bool is_const = type == GateType::Const0 || type == GateType::Const1;
  const bool is_unary = type == GateType::Buf || type == GateType::Not;
  if (is_const && !fanin.empty())
    throw std::invalid_argument("Netlist: constant gate takes no fanin");
  if (is_unary && fanin.size() != 1)
    throw std::invalid_argument("Netlist: unary gate takes exactly one fanin");
  if (is_logic_op(type) && fanin.empty())
    throw std::invalid_argument("Netlist: logic gate needs >= 1 fanin");
  const NodeId id = static_cast<NodeId>(gates_.size());
  for (NodeId f : fanin)
    if (f >= id)
      throw std::invalid_argument(
          "Netlist: fanin must reference an existing node (topological "
          "construction)");
  gates_.push_back(Gate{type, std::move(fanin), std::move(name)});
  return id;
}

void Netlist::mark_output(NodeId n) {
  check_open();
  if (n >= gates_.size())
    throw std::invalid_argument("Netlist: mark_output of unknown node");
  if (output_flag_.size() < gates_.size()) output_flag_.resize(gates_.size(), 0);
  if (output_flag_[n])
    throw std::invalid_argument("Netlist: node marked as output twice");
  output_flag_[n] = 1;
  outputs_.push_back(n);
}

void Netlist::finalize() {
  check_open();
  const std::size_t n = gates_.size();
  if (outputs_.empty())
    throw std::logic_error("Netlist: no primary outputs marked");
  output_flag_.resize(n, 0);

  levels_.assign(n, 0);
  depth_ = 0;
  // Fanout CSR: count branch degrees, prefix-sum, then fill.
  fanout_offset_.assign(n + 1, 0);
  for (NodeId id = 0; id < n; ++id) {
    const Gate& g = gates_[id];
    unsigned lvl = 0;
    for (NodeId f : g.fanin) {
      ++fanout_offset_[f + 1];
      lvl = std::max(lvl, levels_[f] + 1);
    }
    levels_[id] = g.fanin.empty() ? 0 : lvl;
    depth_ = std::max(depth_, levels_[id]);
  }
  for (std::size_t i = 1; i <= n; ++i) fanout_offset_[i] += fanout_offset_[i - 1];
  fanout_edges_.resize(fanout_offset_[n]);
  {
    std::vector<std::uint32_t> cursor(fanout_offset_.begin(),
                                      fanout_offset_.end() - 1);
    for (NodeId id = 0; id < n; ++id)
      for (NodeId f : gates_[id].fanin) fanout_edges_[cursor[f]++] = id;
  }

  stems_.clear();
  for (NodeId id = 0; id < n; ++id) {
    // A primary-output node with extra fanout also branches: the output pin
    // itself counts as one branch.
    const std::size_t branches = fanout_offset_[id + 1] - fanout_offset_[id] +
                                 (output_flag_[id] ? 1 : 0);
    if (branches >= 2) stems_.push_back(id);
  }

  by_name_.clear();
  for (NodeId id = 0; id < n; ++id) {
    const std::string& nm = gates_[id].name;
    if (nm.empty()) continue;
    if (!by_name_.emplace(nm, id).second)
      throw std::logic_error("Netlist: duplicate net name '" + nm + "'");
  }

  compiled_ = std::make_shared<const CompiledNetlist>(*this);
  finalized_ = true;
}

const CompiledNetlist& Netlist::compiled() const {
  if (!compiled_)
    throw std::logic_error("Netlist: compiled() requires finalize()");
  return *compiled_;
}

NodeId Netlist::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoNode : it->second;
}

std::string Netlist::name_of(NodeId n) const {
  const std::string& nm = gates_[n].name;
  if (!nm.empty()) return nm;
  // Appended: see make_random_circuit on -Wrestrict.
  return std::string("n").append(std::to_string(n));
}

}  // namespace protest
