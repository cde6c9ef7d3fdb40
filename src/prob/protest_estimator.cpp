#include "prob/protest_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "netlist/compiled.hpp"
#include "netlist/cone.hpp"
#include "prob/naive.hpp"

namespace protest {
namespace {

/// Conditional probabilities inside one gate's bounded fanin cone, on the
/// compiled CSR, re-evaluating only what a pin can change.
///
/// walk() propagates the cone once with nothing pinned and records, per
/// cone node, a reach mask: bit t is set when tracked node t reaches the
/// node through the cone.  pin(t, v) then re-evaluates only tracked node
/// t's in-cone fanout — the cone nodes whose mask has t's bit — logging the
/// values it overwrites, and undo(mark) restores them.  Every other cone
/// node keeps its value, and every re-evaluated node sees the same operands
/// in the same order as a full re-propagation with the same pins would, so
/// the results are bit-identical to one.  Pins may be stacked as long as no
/// pinned node lies downstream of a later pin (pin in topological order).
///
/// Tracked nodes past the 63rd share the top mask bit: pinning one of them
/// re-evaluates the union of those nodes' fanouts, a superset whose extra
/// nodes are recomputed from unchanged operands to unchanged bits.  So any
/// number of tracked nodes costs one mask word per node.
class SparseConeProp {
 public:
  explicit SparseConeProp(const Netlist& net)
      : cn_(net.compiled()),
        val_(net.size(), 0.0),
        mask_(net.size(), 0),
        stamp_(net.size(), 0),
        ins_(cn_.max_fanin()) {}

  /// cone must be ascending (topological), tracked ascending.  base =
  /// unconditioned probabilities, read for nodes outside the cone.
  void walk(std::span<const NodeId> cone, std::span<const NodeId> tracked,
            std::span<const double> base) {
    ++epoch_;
    cone_ = cone;
    base_ = base;
    log_.clear();
    pos_.assign(tracked.size(), kOutside);
    std::size_t t = 0;
    for (std::size_t k = 0; k < cone.size(); ++k) {
      const NodeId m = cone[k];
      while (t < tracked.size() && tracked[t] < m) ++t;
      std::uint64_t mask = 0;
      if (t < tracked.size() && tracked[t] == m) {
        pos_[t] = k;
        mask = bit(t++);
      }
      for (NodeId f : cn_.fanin(m))
        if (stamp_[f] == epoch_) mask |= mask_[f];
      val_[m] = value_of(m);
      mask_[m] = mask;
      stamp_[m] = epoch_;
    }
  }

  /// Conditional probability of n under the current pins (base outside
  /// the cone).
  double prob(NodeId n) const {
    return stamp_[n] == epoch_ ? val_[n] : base_[n];
  }

  /// Pins tracked node t to v and re-evaluates its in-cone fanout.  A
  /// tracked node outside the cone changes nothing.
  void pin(std::size_t t, double v) {
    const std::size_t k0 = pos_[t];
    if (k0 == kOutside) return;
    set(cone_[k0], v);
    const std::uint64_t b = bit(t);
    for (std::size_t k = k0 + 1; k < cone_.size(); ++k) {
      const NodeId m = cone_[k];
      if (mask_[m] & b) set(m, value_of(m));
    }
  }

  /// Undo-log position: undo(mark()) later restores the current values.
  std::size_t mark() const { return log_.size(); }

  void undo(std::size_t mark) {
    while (log_.size() > mark) {
      val_[log_.back().first] = log_.back().second;
      log_.pop_back();
    }
  }

 private:
  static constexpr std::size_t kOutside = ~std::size_t{0};

  static std::uint64_t bit(std::size_t t) {
    return std::uint64_t{1} << std::min<std::size_t>(t, 63);
  }

  /// Value of cone node m from its fanins' current values — the in-cone
  /// propagation step, with the float ops of eval_gate_prob.
  double value_of(NodeId m) {
    const GateType type = cn_.type(m);
    if (type == GateType::Input) return base_[m];
    const auto fanin = cn_.fanin(m);
    for (std::size_t i = 0; i < fanin.size(); ++i) ins_[i] = prob(fanin[i]);
    return eval_gate_prob(type, {ins_.data(), fanin.size()});
  }

  void set(NodeId m, double v) {
    log_.emplace_back(m, val_[m]);
    val_[m] = v;
  }

  const CompiledNetlist& cn_;
  std::vector<double> val_;          ///< current value of cone nodes
  std::vector<std::uint64_t> mask_;  ///< reach mask of cone nodes
  /// Walk stamp: a node is in the current cone iff stamp_ == epoch_.
  /// 64-bit: the estimator lives as long as its session, and a 32-bit
  /// epoch would wrap and let stale stamps match again.
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
  std::vector<double> ins_;
  std::span<const NodeId> cone_;
  std::span<const double> base_;
  std::vector<std::size_t> pos_;  ///< tracked index -> cone index
  std::vector<std::pair<NodeId, double>> log_;  ///< (node, old value)
};

/// Per-gate structural data: everything about case 4 of sect. 2 that does
/// not depend on the input tuple.  Computed lazily once per estimator and
/// reused for every tuple, batch, and incremental perturbation.
///
/// Retaining every conditioned gate's cone puts peak memory at
/// O(sum of maxlist-bounded cone sizes) for the estimator's lifetime —
/// a few MB on the largest shipped circuits — where the pre-batching
/// code streamed one cone at a time.  That retention is what makes
/// cross-tuple and cross-call reuse possible.
struct GatePlan {
  NodeId node = kNoNode;
  std::vector<NodeId> candidates;  ///< trimmed candidate joining points V
  std::vector<NodeId> cone;        ///< bounded TFI union of the fanins
  std::vector<NodeId> w;           ///< selected conditioning set (select pass)
};

}  // namespace

/// One evaluation context: the structural plan plus all per-tuple scratch.
/// run(select = true) scores the candidates with the covariance criterion
/// and records W per gate; run(select = false) reuses the recorded W and
/// only re-propagates the conditionals of formula (2); run_perturb()
/// re-evaluates (with fresh selection) only the fanout cone of one
/// changed input.  Each conditioned gate costs one unpinned walk of its
/// cone per tuple; selection and formula (2) share it.
class ProtestEstimator::Evaluator {
 public:
  Evaluator(const Netlist& net, const ProtestParams& params)
      : net_(net),
        cn_(net.compiled()),
        params_(params),
        prop_(net),
        plan_index_(net.size(), -1),
        fanout_cones_(net) {
    build_plan();
  }

  std::vector<double> run(std::span<const double> input_probs, bool select) {
    std::vector<double> p(net_.size(), 0.0);
    const auto inputs = net_.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i)
      p[inputs[i]] = input_probs[i];

    if (select) {
      stats_.gates_conditioned = 0;
      stats_.max_w = 0;
      select_anchor_.assign(input_probs.begin(), input_probs.end());
    }

    for (NodeId n = 0; n < net_.size(); ++n) {
      if (net_.gate(n).type == GateType::Input) continue;
      p[n] = eval_node(n, p, select, select ? &stats_ : nullptr);
    }
    return p;
  }

  /// base must be the vector run()/run_perturb() produced for
  /// base_inputs.  Only the changed input's transitive fanout is
  /// re-evaluated: any other gate's bounded fanin cone lies entirely
  /// outside that fanout (a cone member downstream of the input would put
  /// the gate downstream too), so its value is a function of unchanged
  /// numbers and is kept verbatim.
  ///
  /// Exact mode re-selects per touched gate, exactly as a fresh full run
  /// would — the result matches run(perturbed tuple, select=true) bit for
  /// bit.  FrozenSelection keeps the conditioning sets selected at
  /// base_inputs (re-anchoring them with one select run if the current
  /// selection state belongs to some other tuple) — the result matches
  /// what a batch anchored at base_inputs computes for the perturbed
  /// tuple, with eval-only cost confined to the fanout cone.
  std::vector<double> run_perturb(std::span<const double> base_inputs,
                                  std::span<const double> base,
                                  std::size_t input_index, double new_p,
                                  PerturbMode mode) {
    const bool select = mode == PerturbMode::Exact;
    if (!select && !std::equal(select_anchor_.begin(), select_anchor_.end(),
                               base_inputs.begin(), base_inputs.end()))
      run(base_inputs, /*select=*/true);  // re-anchor the selections
    if (select) select_anchor_.clear();  // per-gate sets become mixed-tuple
    std::vector<double> p(base.begin(), base.end());
    const NodeId root = net_.inputs()[input_index];
    p[root] = new_p;
    for (NodeId n : fanout_cones_.of(input_index)) {
      if (n == root) continue;
      p[n] = eval_node(n, p, select, nullptr);
    }
    return p;
  }

  const ProtestStats& stats() const { return stats_; }

 private:
  void build_plan() {
    ConeWorkspace ws(net_);
    for (NodeId n = 0; n < net_.size(); ++n) {
      const Gate& g = net_.gate(n);
      if (g.type == GateType::Input || g.fanin.size() < 2) continue;

      // Case 4: look for joining points V within MAXLIST levels.  The
      // candidate set also contains intra-cone reconvergence stems
      // (V(a,a)): pinning them makes the in-cone conditionals P(a_i | A_v)
      // of formula (2) sharp (see ConeWorkspace::conditioning_points).
      ws.compute(g.fanin, params_.maxlist);
      std::vector<NodeId> v = ws.conditioning_points(n);
      if (v.empty()) continue;
      stats_.total_joining_points += v.size();

      // Keep the candidates closest to the gate (strongest correlations
      // are near the reconvergence) when V is oversized.
      if (v.size() > params_.max_candidates) {
        std::sort(v.begin(), v.end(), [&](NodeId a, NodeId b) {
          return net_.level(a) > net_.level(b);
        });
        v.resize(params_.max_candidates);
        std::sort(v.begin(), v.end());
      }
      plan_index_[n] = static_cast<std::int32_t>(plans_.size());
      plans_.push_back({n, std::move(v), ws.cone(), {}});
    }
  }

  /// Evaluates one non-input node against the current probabilities,
  /// optionally re-selecting its conditioning set (and accounting it into
  /// `stats` when given).
  double eval_node(NodeId n, std::span<const double> p, bool select,
                   ProtestStats* stats) {
    // Cases 1-3 of sect. 2: no conditioning possible or necessary.
    auto naive_value = [&] {
      ins_.clear();
      for (NodeId f : cn_.fanin(n)) ins_.push_back(p[f]);
      return eval_gate_prob(cn_.type(n), ins_);
    };
    const std::int32_t idx = plan_index_[n];
    if (idx < 0) return naive_value();
    GatePlan& plan = plans_[static_cast<std::size_t>(idx)];
    if (select) {
      select_w(plan, p);
      if (plan.w.empty()) return naive_value();
    } else {
      if (plan.w.empty()) return naive_value();
      prop_.walk(plan.cone, plan.w, p);
      w_tracked_.resize(plan.w.size());
      std::iota(w_tracked_.begin(), w_tracked_.end(), std::size_t{0});
    }
    if (stats) {
      ++stats->gates_conditioned;
      stats->max_w = std::max(stats->max_w, plan.w.size());
    }
    return conditioned_prob(plan);
  }

  /// Scores the candidates with the covariance criterion — maximize
  /// p_x (1-p_x) * max_{i<=j} |Delta(a_i,x) Delta(a_j,x)| with Delta from
  /// one-point conditionals — and records the top MAXVERS as plan.w.
  /// Leaves prop_ on the unpinned walk of the cone, tracking the
  /// candidates, and w_tracked_ holding each w_j's tracked index.
  void select_w(GatePlan& plan, std::span<const double> p) {
    prop_.walk(plan.cone, plan.candidates, p);
    const auto fanin = cn_.fanin(plan.node);
    plan.w.clear();
    w_tracked_.clear();
    scored_.clear();
    delta_.resize(fanin.size());
    for (std::size_t c = 0; c < plan.candidates.size(); ++c) {
      const double px = p[plan.candidates[c]];
      const double sx2 = px * (1.0 - px);
      if (sx2 <= params_.min_score) continue;
      const std::size_t mark = prop_.mark();
      prop_.pin(c, 1.0);
      for (std::size_t i = 0; i < fanin.size(); ++i)
        delta_[i] = prop_.prob(fanin[i]);
      prop_.undo(mark);
      prop_.pin(c, 0.0);
      for (std::size_t i = 0; i < fanin.size(); ++i)
        delta_[i] -= prop_.prob(fanin[i]);
      prop_.undo(mark);
      double best = 0.0;
      for (std::size_t i = 0; i < fanin.size(); ++i)
        for (std::size_t j = i; j < fanin.size(); ++j)
          best = std::max(best, std::abs(delta_[i] * delta_[j]));
      const double score = sx2 * best;
      if (score > params_.min_score) scored_.emplace_back(score, c);
    }
    if (scored_.empty()) return;
    // Candidates are ascending, so the index tie-break is the node order.
    std::sort(scored_.begin(), scored_.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    for (std::size_t i = 0;
         i < scored_.size() && w_tracked_.size() < params_.maxvers; ++i)
      w_tracked_.push_back(scored_[i].second);
    // Topological, for the chain.
    std::sort(w_tracked_.begin(), w_tracked_.end());
    for (std::size_t c : w_tracked_) plan.w.push_back(plan.candidates[c]);
  }

  /// Formula (2): enumerate assignments of W depth-first so that each
  /// branching weight is the conditional P(w_j | w_1..w_{j-1}) read off
  /// the re-propagated cone — sharper than the independence product when
  /// joining points feed each other.  Runs on prop_'s unpinned walk:
  /// pinning w_j re-evaluates only its in-cone fanout and backtracking
  /// undoes it.  W is ascending, so no pinned w_i is downstream of a later
  /// pin.
  double conditioned_prob(const GatePlan& plan) {
    const std::vector<NodeId>& w = plan.w;
    const auto fanin = cn_.fanin(plan.node);
    const GateType type = cn_.type(plan.node);
    double acc = 0.0;
    ins_.resize(fanin.size());
    auto rec = [&](auto&& self, std::size_t j, double weight) -> void {
      if (j == w.size()) {
        for (std::size_t i = 0; i < fanin.size(); ++i)
          ins_[i] = prop_.prob(fanin[i]);
        acc += weight * eval_gate_prob(type, ins_);
        return;
      }
      const double q = std::clamp(prop_.prob(w[j]), 0.0, 1.0);
      auto branch = [&](double value, double branch_weight) {
        if (branch_weight <= 0.0) return;
        const std::size_t mark = prop_.mark();
        prop_.pin(w_tracked_[j], value);
        self(self, j + 1, branch_weight);
        prop_.undo(mark);
      };
      branch(1.0, weight * q);
      branch(0.0, weight * (1.0 - q));
    };
    rec(rec, 0, 1.0);
    return std::clamp(acc, 0.0, 1.0);
  }

  const Netlist& net_;
  const CompiledNetlist& cn_;
  const ProtestParams params_;  ///< by value: survives estimator moves
  SparseConeProp prop_;
  std::vector<std::int32_t> plan_index_;  ///< node -> plans_ index or -1
  std::vector<GatePlan> plans_;
  InputFanoutCones fanout_cones_;  ///< incremental work lists
  /// Input tuple whose select pass chose the current plan W's; empty when
  /// the W's do not all belong to one tuple (after an exact perturb).
  std::vector<double> select_anchor_;
  ProtestStats stats_;

  // per-tuple scratch
  std::vector<double> ins_;
  std::vector<double> delta_;
  /// Tracked index in prop_ of each plan.w entry for the current walk.
  std::vector<std::size_t> w_tracked_;
  std::vector<std::pair<double, std::size_t>> scored_;  ///< (score, cand.)
};

ProtestEstimator::ProtestEstimator(const Netlist& net, ProtestParams params)
    : net_(net), params_(params) {
  if (!net.finalized())
    throw std::logic_error("ProtestEstimator: netlist must be finalized");
}

ProtestEstimator::~ProtestEstimator() = default;
ProtestEstimator::ProtestEstimator(ProtestEstimator&&) noexcept = default;

ProtestEstimator::Evaluator& ProtestEstimator::evaluator() const {
  if (!evaluator_)
    evaluator_ = std::make_unique<Evaluator>(net_, params_);
  return *evaluator_;
}

std::vector<double> ProtestEstimator::signal_probs(
    std::span<const double> input_probs) const {
  validate_input_probs(net_, input_probs);
  Evaluator& ev = evaluator();
  std::vector<double> p = ev.run(input_probs, /*select=*/true);
  stats_ = ev.stats();
  return p;
}

std::vector<double> ProtestEstimator::signal_probs_perturb(
    std::span<const double> base_inputs,
    std::span<const double> base_node_probs, std::size_t input_index,
    double new_p, PerturbMode mode) const {
  // Shared contract with the engine wrapper; the repeat when called
  // through ProtestEngine is O(inputs) and deliberate (direct estimator
  // callers get the same checks).
  validate_perturb_args(net_, base_inputs, base_node_probs, input_index,
                        new_p);
  return evaluator().run_perturb(base_inputs, base_node_probs, input_index,
                                 new_p, mode);
}

std::vector<std::vector<double>> ProtestEstimator::signal_probs_batch(
    std::span<const InputProbs> batch) const {
  for (const InputProbs& t : batch) validate_input_probs(net_, t);
  std::vector<std::vector<double>> out;
  out.reserve(batch.size());
  if (batch.empty()) return out;

  Evaluator& ev = evaluator();
  out.push_back(ev.run(batch[0], /*select=*/true));
  for (std::size_t t = 1; t < batch.size(); ++t)
    out.push_back(ev.run(batch[t], /*select=*/false));
  stats_ = ev.stats();
  return out;
}

}  // namespace protest
