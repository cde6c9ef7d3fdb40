#include "sim/fault.hpp"

#include <algorithm>
#include <numeric>

namespace protest {
namespace {

/// Union-find over fault indices.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<Fault> full_fault_list(const Netlist& net) {
  std::vector<Fault> out;
  for (NodeId n = 0; n < net.size(); ++n) {
    out.push_back({n, -1, StuckAt::Zero});
    out.push_back({n, -1, StuckAt::One});
  }
  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    for (int k = 0; k < static_cast<int>(g.fanin.size()); ++k) {
      out.push_back({n, k, StuckAt::Zero});
      out.push_back({n, k, StuckAt::One});
    }
  }
  return out;
}

std::vector<Fault> structural_fault_list(const Netlist& net) {
  std::vector<Fault> out;
  for (NodeId n = 0; n < net.size(); ++n) {
    out.push_back({n, -1, StuckAt::Zero});
    out.push_back({n, -1, StuckAt::One});
  }
  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    for (int k = 0; k < static_cast<int>(g.fanin.size()); ++k) {
      const NodeId driver = g.fanin[k];
      const std::size_t branches =
          net.fanout(driver).size() + (net.is_output(driver) ? 1 : 0);
      if (branches >= 2) {
        out.push_back({n, k, StuckAt::Zero});
        out.push_back({n, k, StuckAt::One});
      }
    }
  }
  return out;
}

std::vector<Fault> collapsed_fault_list(const Netlist& net) {
  const std::vector<Fault> all = full_fault_list(net);

  // Index layout of full_fault_list: stems first (2 per node), then branch
  // faults in (node, pin, sa) order.
  const std::size_t num_stem = 2 * net.size();
  auto stem_index = [](NodeId n, StuckAt sa) {
    return 2 * static_cast<std::size_t>(n) + static_cast<std::size_t>(sa);
  };
  std::vector<std::size_t> branch_base(net.size(), 0);
  {
    std::size_t next = num_stem;
    for (NodeId n = 0; n < net.size(); ++n) {
      branch_base[n] = next;
      next += 2 * net.gate(n).fanin.size();
    }
  }
  auto branch_index = [&](NodeId g, int pin, StuckAt sa) {
    return branch_base[g] + 2 * static_cast<std::size_t>(pin) +
           static_cast<std::size_t>(sa);
  };

  DisjointSets sets(all.size());
  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    switch (g.type) {
      case GateType::Buf:
        sets.unite(branch_index(n, 0, StuckAt::Zero), stem_index(n, StuckAt::Zero));
        sets.unite(branch_index(n, 0, StuckAt::One), stem_index(n, StuckAt::One));
        break;
      case GateType::Not:
        sets.unite(branch_index(n, 0, StuckAt::Zero), stem_index(n, StuckAt::One));
        sets.unite(branch_index(n, 0, StuckAt::One), stem_index(n, StuckAt::Zero));
        break;
      case GateType::And:
        for (int k = 0; k < static_cast<int>(g.fanin.size()); ++k)
          sets.unite(branch_index(n, k, StuckAt::Zero), stem_index(n, StuckAt::Zero));
        break;
      case GateType::Nand:
        for (int k = 0; k < static_cast<int>(g.fanin.size()); ++k)
          sets.unite(branch_index(n, k, StuckAt::Zero), stem_index(n, StuckAt::One));
        break;
      case GateType::Or:
        for (int k = 0; k < static_cast<int>(g.fanin.size()); ++k)
          sets.unite(branch_index(n, k, StuckAt::One), stem_index(n, StuckAt::One));
        break;
      case GateType::Nor:
        for (int k = 0; k < static_cast<int>(g.fanin.size()); ++k)
          sets.unite(branch_index(n, k, StuckAt::One), stem_index(n, StuckAt::Zero));
        break;
      default:
        break;
    }
    // A pin on a single-branch net is the same electrical node as its stem
    // (unless the stem is additionally observed as a primary output).
    for (int k = 0; k < static_cast<int>(g.fanin.size()); ++k) {
      const NodeId d = g.fanin[k];
      if (net.fanout(d).size() == 1 && !net.is_output(d)) {
        sets.unite(branch_index(n, k, StuckAt::Zero), stem_index(d, StuckAt::Zero));
        sets.unite(branch_index(n, k, StuckAt::One), stem_index(d, StuckAt::One));
      }
    }
  }

  // Emit the class representative: union by min index and stems come first,
  // so find() already yields the stem-most, topologically earliest fault.
  std::vector<Fault> out;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (sets.find(i) == i) out.push_back(all[i]);
  return out;
}

std::string to_string(const Netlist& net, const Fault& f) {
  std::string s = net.name_of(f.node);
  if (!f.is_stem()) {
    s += '/';
    s += std::to_string(f.pin);
  }
  s += f.sa == StuckAt::Zero ? " s-a-0" : " s-a-1";
  return s;
}

}  // namespace protest
