#include "lint/implication.hpp"

#include <atomic>
#include <limits>
#include <memory>

#include "lint/fold.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"

namespace protest {
namespace {

/// Forward three-valued determination of a gate's output from its fanin
/// lattice values; -1 when the fanins leave it open.  Inputs are free.
signed char forward_const(const Netlist& net, NodeId n,
                          const std::vector<signed char>& val) {
  const Gate& g = net.gate(n);
  switch (g.type) {
    case GateType::Input:
      return -1;
    case GateType::Const0:
      return 0;
    case GateType::Const1:
      return 1;
    default:
      break;
  }
  int num0 = 0, num1 = 0, unknown = 0, parity = 0;
  for (NodeId f : g.fanin) {
    const signed char v = val[f];
    if (v < 0) {
      ++unknown;
    } else if (v) {
      ++num1;
      parity ^= 1;
    } else {
      ++num0;
    }
  }
  switch (g.type) {
    case GateType::Buf:
      return unknown ? -1 : (num1 ? 1 : 0);
    case GateType::Not:
      return unknown ? -1 : (num1 ? 0 : 1);
    case GateType::And:
      return num0 ? 0 : (unknown ? -1 : 1);
    case GateType::Nand:
      return num0 ? 1 : (unknown ? -1 : 0);
    case GateType::Or:
      return num1 ? 1 : (unknown ? -1 : 0);
    case GateType::Nor:
      return num1 ? 0 : (unknown ? -1 : 1);
    case GateType::Xor:
      return unknown ? -1 : static_cast<signed char>(parity);
    case GateType::Xnor:
      return unknown ? -1 : static_cast<signed char>(parity ^ 1);
    default:
      return -1;
  }
}

}  // namespace

ImplicationEngine::ImplicationEngine(const Netlist& net,
                                     std::vector<signed char> base,
                                     ImplicationOptions opts)
    : net_(net), opts_(opts), base_(std::move(base)), val_(base_),
      queued_(net.size(), 0) {}

void ImplicationEngine::enqueue(NodeId g) {
  if (!queued_[g]) {
    queued_[g] = 1;
    queue_.push_back(g);
  }
}

void ImplicationEngine::clear_queue() {
  for (std::size_t i = qhead_; i < queue_.size(); ++i) queued_[queue_[i]] = 0;
  queue_.clear();
  qhead_ = 0;
}

bool ImplicationEngine::assign(NodeId n, signed char v) {
  const signed char cur = val_[n];
  if (cur >= 0) return cur == v;
  val_[n] = v;
  trail_.push_back(n);
  ++stats_.implications;
  enqueue(n);  // its own fanins may now be forced (backward justification)
  for (NodeId c : net_.fanout(n)) enqueue(c);
  return true;
}

void ImplicationEngine::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    val_[trail_.back()] = -1;
    trail_.pop_back();
  }
}

bool ImplicationEngine::examine(NodeId g, std::vector<NodeId>* unjustified) {
  const Gate& gate = net_.gate(g);
  switch (gate.type) {
    case GateType::Input:
      return true;
    case GateType::Const0:
      return assign(g, 0);
    case GateType::Const1:
      return assign(g, 1);
    default:
      break;
  }
  int num0 = 0, num1 = 0, unknown = 0, parity = 0;
  NodeId last_unknown = kNoNode;
  for (NodeId f : gate.fanin) {
    const signed char v = val_[f];
    if (v < 0) {
      ++unknown;
      last_unknown = f;
    } else if (v) {
      ++num1;
      parity ^= 1;
    } else {
      ++num0;
    }
  }
  const signed char out = val_[g];
  switch (gate.type) {
    case GateType::Buf:
      if (unknown == 0) return assign(g, num1 ? 1 : 0);
      return out < 0 || assign(last_unknown, out);
    case GateType::Not:
      if (unknown == 0) return assign(g, num1 ? 0 : 1);
      return out < 0 || assign(last_unknown, out ? 0 : 1);
    case GateType::And:
    case GateType::Nand: {
      const bool inv = gate.type == GateType::Nand;
      if (num0 > 0) return assign(g, inv ? 1 : 0);
      if (unknown == 0) return assign(g, inv ? 0 : 1);
      if (out < 0) return true;
      if ((out != 0) != inv) {  // AND core is 1: every fanin must be 1
        for (NodeId f : gate.fanin)
          if (val_[f] < 0 && !assign(f, 1)) return false;
      } else if (unknown == 1) {  // core 0, one candidate left
        return assign(last_unknown, 0);
      } else if (unjustified) {
        unjustified->push_back(g);
      }
      return true;
    }
    case GateType::Or:
    case GateType::Nor: {
      const bool inv = gate.type == GateType::Nor;
      if (num1 > 0) return assign(g, inv ? 0 : 1);
      if (unknown == 0) return assign(g, inv ? 1 : 0);
      if (out < 0) return true;
      if ((out != 0) == inv) {  // OR core is 0: every fanin must be 0
        for (NodeId f : gate.fanin)
          if (val_[f] < 0 && !assign(f, 0)) return false;
      } else if (unknown == 1) {  // core 1, one candidate left
        return assign(last_unknown, 1);
      } else if (unjustified) {
        unjustified->push_back(g);
      }
      return true;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      const bool inv = gate.type == GateType::Xnor;
      if (unknown == 0) {
        const bool v = (parity != 0) != inv;
        return assign(g, v ? 1 : 0);
      }
      if (out < 0) return true;
      if (unknown == 1) {
        const bool core = (out != 0) != inv;       // parity over all fanins
        const bool u = core != (parity != 0);      // what the unknown must be
        return assign(last_unknown, u ? 1 : 0);
      }
      if (unjustified) unjustified->push_back(g);
      return true;
    }
    default:
      return true;
  }
}

bool ImplicationEngine::propagate(std::vector<NodeId>* unjustified) {
  while (qhead_ < queue_.size()) {
    const NodeId g = queue_[qhead_++];
    queued_[g] = 0;
    if (++steps_ > opts_.max_steps) {
      exhausted_ = true;
      break;
    }
    if (!examine(g, unjustified)) {
      clear_queue();
      return false;
    }
  }
  clear_queue();
  return true;
}

bool ImplicationEngine::close(unsigned depth) {
  if (unjustified_.size() <= depth) unjustified_.resize(depth + 1);
  std::vector<NodeId>& unjustified = unjustified_[depth];
  unjustified.clear();
  if (!propagate(&unjustified)) return false;
  while (depth > 0 && !exhausted_) {
    bool progress = false;
    std::size_t tried = 0;
    for (std::size_t i = 0;
         i < unjustified.size() && tried < opts_.max_split_gates; ++i) {
      NodeId pivot = kNoNode;
      for (NodeId f : net_.gate(unjustified[i]).fanin)
        if (val_[f] < 0) {
          pivot = f;
          break;
        }
      if (pivot == kNoNode) continue;  // justified meanwhile
      ++tried;
      const bool c0 = refute(pivot, false, depth - 1);
      if (exhausted_) return true;
      const bool c1 = refute(pivot, true, depth - 1);
      if (exhausted_) return true;
      if (c0 && c1) return false;  // pivot has no consistent value
      if (c0 || c1) {
        // One branch refuted: the other value is implied — commit it and
        // re-close, which may surface new unjustified gates to try.
        if (!assign(pivot, c0 ? 1 : 0)) return false;
        if (!propagate(&unjustified)) return false;
        progress = true;
      }
    }
    if (!progress) break;
  }
  return true;
}

bool ImplicationEngine::refute(NodeId node, bool value, unsigned depth) {
  if (exhausted_ || stats_.assumptions >= opts_.max_assumptions) return false;
  ++stats_.assumptions;
  const std::size_t mark = trail_.size();
  bool refuted;
  if (!assign(node, value ? 1 : 0)) {
    refuted = true;
  } else {
    refuted = !close(depth);
  }
  clear_queue();
  undo_to(mark);
  if (refuted) ++stats_.conflicts;
  return refuted;
}

bool ImplicationEngine::proves_conflict(NodeId node, bool value) {
  if (base_[node] >= 0) return base_[node] != (value ? 1 : 0);
  steps_ = 0;
  exhausted_ = false;
  return refute(node, value, opts_.depth);
}

void ImplicationEngine::pin(NodeId node, bool value) {
  if (base_[node] >= 0) return;
  base_[node] = value ? 1 : 0;
  ++stats_.learned;
  // Forward re-closure: node creation order is topological, so a single
  // sweep from the pinned node suffices.
  for (NodeId n = node + 1; n < static_cast<NodeId>(net_.size()); ++n) {
    if (base_[n] >= 0) continue;
    const signed char v = forward_const(net_, n, base_);
    if (v >= 0) base_[n] = v;
  }
  val_ = base_;
}

void ImplicationEngine::charge(const ImplicationStats& spent) {
  stats_.assumptions += spent.assumptions;
  stats_.implications += spent.implications;
  stats_.conflicts += spent.conflicts;
  stats_.learned += spent.learned;
}

namespace {

/// The refutation pair for one node: the value it is proven to carry on
/// every vector, or -1.
signed char evaluate(ImplicationEngine& eng, NodeId n) {
  if (eng.proves_conflict(n, true)) return 0;
  if (eng.proves_conflict(n, false)) return 1;
  return -1;
}

/// Pending nodes per speculation batch: enough to keep a few workers busy
/// between commits, few enough that a pin wastes little work.
constexpr std::size_t kLearnBatch = 32;
/// Nodes between cancellation checkpoints on one worker.
constexpr NodeId kLearnCheckpoint = 256;

}  // namespace

std::vector<signed char> learn_constants(const Netlist& net,
                                         const ImplicationOptions& opts,
                                         ImplicationStats* stats,
                                         const ParallelConfig& parallel) {
  // The committed engine: its base and stats are the result.
  ImplicationEngine eng(net, propagate_constants(net), opts);
  const NodeId size = static_cast<NodeId>(net.size());
  const auto pending = [&](NodeId n) {
    return !net.is_input(n) && eng.base()[n] < 0;  // inputs are free
  };
  // The serial loop from node `from` on.
  const auto serial = [&](NodeId from) {
    for (NodeId n = from; n < size; ++n) {
      if ((n - from) % kLearnCheckpoint == 0) check_cancelled();
      if (!pending(n)) continue;
      if (eng.stats().assumptions >= opts.max_assumptions) break;
      const signed char v = evaluate(eng, n);
      if (v >= 0) eng.pin(n, v != 0);
    }
  };

  // The speculative loop (see the header): returns when every node is
  // tried, or after handing over to the serial loop at the budget.
  const auto speculate = [&] {
    const std::shared_ptr<Executor> exec = make_executor(parallel);
    // Speculative engines evaluate with no assumption budget; the budget
    // rule below decides whether that matches the serial loop.
    ImplicationOptions spec_opts = opts;
    spec_opts.max_assumptions = std::numeric_limits<std::size_t>::max();
    struct Speculator {
      Speculator(const Netlist& net, const std::vector<signed char>& base,
                 const ImplicationOptions& o, std::size_t applied)
          : eng(net, base, o), pins_applied(applied) {}
      ImplicationEngine eng;
      std::size_t pins_applied;  ///< prefix of `pins` this engine has
    };
    std::vector<std::unique_ptr<Speculator>> spec(exec->num_workers());
    std::vector<std::pair<NodeId, bool>> pins;  // committed, in order
    struct Outcome {
      signed char value = -1;
      ImplicationStats spent;
    };
    std::vector<NodeId> batch;
    std::vector<Outcome> outcome(kLearnBatch);

    for (NodeId next = 0;;) {
      check_cancelled();
      batch.clear();
      for (NodeId n = next; n < size && batch.size() < kLearnBatch; ++n)
        if (pending(n)) batch.push_back(n);
      if (batch.empty()) return;

      std::atomic<std::size_t> first_pin{batch.size()};
      exec->parallel_for(batch.size(), [&](std::size_t i, unsigned worker) {
        if (i > first_pin.load()) return;
        std::unique_ptr<Speculator>& sp = spec[worker];
        if (!sp)
          sp = std::make_unique<Speculator>(net, eng.base(), spec_opts,
                                            pins.size());
        while (sp->pins_applied < pins.size()) {
          const auto [n, v] = pins[sp->pins_applied++];
          sp->eng.pin(n, v);
        }
        const ImplicationStats before = sp->eng.stats();
        const signed char v = evaluate(sp->eng, batch[i]);
        const ImplicationStats& after = sp->eng.stats();
        outcome[i] = {v,
                      {after.assumptions - before.assumptions,
                       after.implications - before.implications,
                       after.conflicts - before.conflicts, 0}};
        if (v < 0) return;
        std::size_t seen = first_pin.load();
        while (i < seen && !first_pin.compare_exchange_weak(seen, i)) {
        }
      });

      // Commit in node order, up to and including the first pin.
      const std::size_t end = std::min(first_pin.load() + 1, batch.size());
      for (std::size_t i = 0; i < end; ++i) {
        const Outcome& o = outcome[i];
        if (eng.stats().assumptions + o.spent.assumptions >=
            opts.max_assumptions) {
          serial(batch[i]);
          return;
        }
        eng.charge(o.spent);
        if (o.value >= 0) {
          eng.pin(batch[i], o.value != 0);
          pins.emplace_back(batch[i], o.value != 0);
        }
      }
      next = batch[end - 1] + 1;
    }
  };

  if (parallel.resolved() <= 1)
    serial(0);
  else
    speculate();
  if (stats) *stats = eng.stats();
  return eng.base();
}

}  // namespace protest
