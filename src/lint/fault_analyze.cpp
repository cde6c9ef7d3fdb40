#include "lint/fault_analyze.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>

#include "lint/fold.hpp"
#include "lint/prob_bounds.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"

namespace protest {

std::string to_string(FaultClass c) {
  switch (c) {
    case FaultClass::ProvenUndetectable:
      return "proven_undetectable";
    case FaultClass::ProvenDetectable:
      return "proven_detectable";
    case FaultClass::Uncertain:
      return "uncertain";
  }
  return "?";
}

std::string to_string(UndetectableCause c) {
  switch (c) {
    case UndetectableCause::None:
      return "none";
    case UndetectableCause::Unexcitable:
      return "unexcitable";
    case UndetectableCause::Unobservable:
      return "unobservable";
  }
  return "?";
}

namespace {

/// Same fixed Bloom bit per stem id as prob_bounds (splitmix64 finalizer) —
/// used to give the fault-origin variable a bit of its own.
std::uint64_t stem_bit(NodeId n) {
  std::uint64_t z = n + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return 1ull << (z & 63u);
}

struct Interval {
  double lo = 0.0;
  double hi = 1.0;
};

Interval clamp01(Interval v) {
  v.lo = std::clamp(v.lo, 0.0, 1.0);
  v.hi = std::clamp(v.hi, 0.0, 1.0);
  if (v.lo > v.hi) v.lo = v.hi;
  return v;
}

/// Fréchet conjunction: sound for ANY joint distribution.
Interval and_frechet(Interval a, Interval b) {
  return {std::max(0.0, a.lo + b.lo - 1.0), std::min(a.hi, b.hi)};
}

struct Ev {
  Interval iv;
  std::uint64_t sig = 0;
};

/// Faults whose event sweeps share one traversal: at most this many
/// lanes ride one group's heap.  Larger groups are split, which stays
/// exact (every lane's result depends only on its own fault); the cap
/// bounds the lane pool at kMaxLanes events per marked node.
constexpr std::size_t kMaxLanes = 8;

/// One live fault inside a group traversal.
struct Lane {
  std::size_t fault = 0;  ///< index into the fault list (and `bounds`)
  Interval exc;           ///< excitation interval of the faulted line
  Ev seed;                ///< the event at the fault's gate `f.node`
};

/// The unaffected side pins of one gate pin folded into the probability
/// that they sensitize it.  It reads only the good-value intervals, so
/// every lane crossing that pin shares it.
struct Sens {
  bool passthrough = false;  ///< BUF/NOT/XOR/XNOR: every flip propagates
  Interval iv{1.0, 1.0};
  std::uint64_t sig = 0;
  std::size_t widened = 0;  ///< Fréchet steps the fold took
};

/// Per-worker sweep scratch, epoch-stamped to avoid O(n) clears.  Each
/// worker of analyze_faults owns one; nothing in it outlives a traversal
/// except the allocations and the widening tally of the current task.
/// Workers' scratches sit side by side in one vector and their counters
/// and heap ends change on every event, so each takes whole cache lines:
/// sharing one would serialize the workers on it.
struct alignas(64) SweepScratch {
  /// `max_marked` bounds the nodes one traversal marks, so the lane pool
  /// is allocated once at its largest size and never grows (growing by
  /// doubling would leave up to twice that resident).
  SweepScratch(std::size_t n, std::size_t max_marked)
      : ev_epoch(n, 0), row(n, 0), queued_epoch(n, 0) {
    pool.reserve(max_marked * kMaxLanes);
  }

  std::vector<std::uint32_t> ev_epoch;  ///< node marked in this traversal
  std::vector<std::uint32_t> row;       ///< its events' row in `pool`
  std::vector<std::uint32_t> queued_epoch;
  std::uint32_t epoch = 0;
  /// One row of lane events per marked node, lanes side by side.
  std::vector<Ev> pool;
  std::vector<NodeId> heap;     ///< min-heap on node id == topological order
  std::vector<NodeId> drivers;  ///< distinct affected drivers of one gate
  std::vector<Lane> lanes;      ///< live lanes of the group being swept
  /// Fréchet/union widenings taken since the owner last reset it.
  std::size_t frechet_widened = 0;
};

/// The per-netlist static context: built once, then read-only, so every
/// worker shares it and analyzes its fault groups against its own
/// SweepScratch.
class Analyzer {
 public:
  Analyzer(const Netlist& net, const FaultAnalyzeOptions& opts,
           const ParallelConfig& parallel)
      : net_(net), opts_(opts) {
    if (!net.finalized())
      throw std::invalid_argument("analyze_faults: netlist must be finalized");
    probs_ = opts.input_probs.empty() ? uniform_input_probs(net, opts.p)
                                      : opts.input_probs;
    validate_input_probs(net, probs_);

    robust_ = propagate_constants(net);
    learned_ = robust_;
    if (opts.learn) {
      ImplicationStats st;
      learned_ = learn_constants(net, opts.implication, &st, parallel);
      learned_count_ = st.learned;
    }

    sb_ = signal_prob_bounds(net, probs_);
    // Pin the learned constants into the good-value intervals.  Sound: a
    // learned constant IS the good value on every vector, and a constant
    // net carries no randomness, so it also drops out of the signatures.
    // Downstream intervals keep their pre-pin (wider) values.
    for (NodeId n = 0; n < static_cast<NodeId>(net.size()); ++n) {
      if (learned_[n] < 0) continue;
      sb_.lo[n] = sb_.hi[n] = static_cast<double>(learned_[n]);
      sb_.sig[n] = 0;
    }

    // Reverse reachability to the primary outputs: plain, and restricted
    // to nodes the forward lattice leaves free.  A robust constant's
    // derivation passes only through robust constants, so a fault at a
    // robust-free origin can never flip one — robust constants soundly
    // block its propagation paths (the dead-gate argument, fault-lifted).
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

  std::size_t learned_count() const { return learned_count_; }

  void validate(const Fault& f) const {
    if (f.node >= net_.size())
      throw std::invalid_argument("analyze_faults: fault node out of range");
    if (!f.is_stem() &&
        static_cast<std::size_t>(f.pin) >= net_.gate(f.node).fanin.size())
      throw std::invalid_argument("analyze_faults: fault pin out of range");
  }

  /// The sweep-sharing key of a validated fault: its gate and whether its
  /// origin is robust-free.  Faults with equal keys seed their events at
  /// the same node and see the same robust-constant blocking, so their
  /// sweeps pop the same nodes (see analyze_group).
  std::size_t group_key(const Fault& f) const {
    return 2 * static_cast<std::size_t>(f.node) + (robust_[site(f)] < 0);
  }

  /// Bounds the validated faults `group[..]`, which share one group_key,
  /// into `bounds` by fault index.  Reads only the shared context and
  /// writes only `s` and the group's bounds, so workers run it
  /// concurrently.
  void analyze_group(std::span<const std::size_t> group,
                     std::span<const Fault> faults, FaultBound* bounds,
                     SweepScratch& s) const {
    const Fault& first = faults[group.front()];
    const bool origin_free = robust_[site(first)] < 0;
    s.lanes.clear();
    for (const std::size_t i : group) {
      if (!start(faults[i], i, bounds[i], s)) continue;
      if (s.lanes.size() == kMaxLanes) {
        sweep_lanes(s.lanes, first.node, origin_free, bounds, s);
        s.lanes.clear();
      }
    }
    if (!s.lanes.empty())
      sweep_lanes(s.lanes, first.node, origin_free, bounds, s);
  }

 private:
  static FaultBound undetectable(UndetectableCause cause) {
    return {0.0, 0.0, FaultClass::ProvenUndetectable, cause, false};
  }

  NodeId site(const Fault& f) const {
    return f.is_stem() ? f.node : net_.gate(f.node).fanin[f.pin];
  }

  /// The prechecks and the seed event of fault `f` (index `i`).  A fault
  /// they settle gets its bound in `out`; a live one joins `s.lanes` and
  /// start returns true.
  bool start(const Fault& f, std::size_t i, FaultBound& out,
             SweepScratch& s) const {
    const NodeId line = site(f);

    // Excitation: the good value of the faulted line must be the opposite
    // of the stuck value.
    const Interval exc =
        f.sa == StuckAt::Zero
            ? Interval{sb_.lo[line], sb_.hi[line]}
            : Interval{1.0 - sb_.hi[line], 1.0 - sb_.lo[line]};
    if (exc.hi <= 0.0) {
      out = undetectable(UndetectableCause::Unexcitable);
      return false;
    }

    // Observability prechecks.  The effect surfaces at the stem node
    // itself, or at the faulted pin's consuming gate.
    const bool origin_free = robust_[line] < 0;
    // A robust-constant gate output is immune to a fault on a pin the
    // lattice did not use to derive it (robust derivations only pass
    // through robust-constant fanins, and this driver is robust-free).
    if ((!f.is_stem() && origin_free && robust_[f.node] >= 0) ||
        (origin_free ? !obs_reach_[f.node] : !plain_reach_[f.node])) {
      out = undetectable(UndetectableCause::Unobservable);
      return false;
    }

    // Seed: the event at the origin.  stem_bit gives the origin variable a
    // signature bit of its own even when its good-value signature is empty
    // (e.g. a learned-constant line).  A pin fault's event first crosses
    // its consuming gate.
    Ev seed{exc, sb_.sig[line] | stem_bit(line)};
    if (!f.is_stem()) {
      const Sens sens = sensitization(f.node, f.pin);
      s.frechet_widened += sens.widened;
      seed = through(sens, seed, s.frechet_widened);
      if (seed.iv.hi <= 0.0) {
        out = undetectable(UndetectableCause::Unobservable);
        return false;
      }
    }
    s.lanes.push_back({i, exc, seed});
    return true;
  }

  /// The side-pin fold for an event on pin `pin` of `gate`: AND/NAND
  /// propagate iff every side pin is 1; OR/NOR iff every side pin is 0.
  /// Side pins are unaffected, so their good-value intervals apply; they
  /// are folded with the product where the signatures prove
  /// disjointness, Fréchet otherwise.
  Sens sensitization(NodeId gate, int pin) const {
    const Gate& g = net_.gate(gate);
    const GateType t = g.type;
    Sens sens;
    if (t == GateType::Buf || t == GateType::Not || t == GateType::Xor ||
        t == GateType::Xnor) {
      sens.passthrough = true;
      return sens;
    }
    const bool need_one = t == GateType::And || t == GateType::Nand;
    for (std::size_t k = 0; k < g.fanin.size(); ++k) {
      if (static_cast<int>(k) == pin) continue;
      const NodeId f = g.fanin[k];
      const Interval side = need_one
                                ? Interval{sb_.lo[f], sb_.hi[f]}
                                : Interval{1.0 - sb_.hi[f], 1.0 - sb_.lo[f]};
      if ((sens.sig & sb_.sig[f]) == 0) {
        sens.iv.lo *= side.lo;
        sens.iv.hi *= side.hi;
      } else {
        ++sens.widened;
        sens.iv = and_frechet(sens.iv, side);
      }
      sens.sig |= sb_.sig[f];
    }
    return sens;
  }

  /// P(E and the side pins sensitize): the exact event identity for a
  /// single affected fanin, one lane's share of the work.
  static Ev through(const Sens& sens, const Ev& e, std::size_t& widened) {
    if (sens.passthrough) return e;
    Ev out;
    if ((e.sig & sens.sig) == 0) {
      out.iv = {e.iv.lo * sens.iv.lo, e.iv.hi * sens.iv.hi};
    } else {
      ++widened;
      out.iv = and_frechet(e.iv, sens.iv);
    }
    out.iv = clamp01(out.iv);
    out.sig = e.sig | sens.sig;
    return out;
  }

  void push_consumers(NodeId n, SweepScratch& s) const {
    for (const NodeId c : net_.fanout(n)) {
      if (s.queued_epoch[c] != s.epoch) {
        s.queued_epoch[c] = s.epoch;
        s.heap.push_back(c);
        std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
      }
    }
  }

  /// Sweeps `lanes`, which share gate `origin`, together; if they
  /// diverge, restores the widening tally and sweeps them one by one.
  void sweep_lanes(std::span<const Lane> lanes, NodeId origin,
                   bool origin_free, FaultBound* bounds,
                   SweepScratch& s) const {
    const std::size_t tally = s.frechet_widened;
    if (sweep(lanes, origin, origin_free, bounds, s)) return;
    s.frechet_widened = tally;
    for (const Lane& lane : lanes)
      sweep({&lane, 1}, origin, origin_free, bounds, s);
  }

  /// One forward event traversal from `origin` for every lane of a group.
  /// Which nodes a lane marks depends on the lane only through whether
  /// its event at a node can be nonzero, so while every lane agrees on
  /// that at every node, the lanes pop the same nodes in the same order
  /// and truncate at the same step: each lane's bound is then exactly its
  /// own one-fault sweep's.  The heap, the fanin scan and the side-pin
  /// fold are shared; only the event arithmetic runs per lane.  Returns
  /// false, with nothing written to `bounds`, when the lanes disagree
  /// somewhere (an underflow in some lanes only).  One lane never does.
  bool sweep(std::span<const Lane> lanes, NodeId origin, bool origin_free,
             FaultBound* bounds, SweepScratch& s) const {
    const std::size_t width = lanes.size();
    ++s.epoch;
    s.heap.clear();
    s.pool.clear();
    double det_lo[kMaxLanes] = {};
    double det_hi_sum[kMaxLanes] = {};
    Ev next[kMaxLanes];

    const auto mark = [&](NodeId n) {
      s.ev_epoch[n] = s.epoch;
      s.row[n] = static_cast<std::uint32_t>(s.pool.size() / width);
      s.pool.insert(s.pool.end(), next, next + width);
      if (net_.is_output(n)) {
        for (std::size_t k = 0; k < width; ++k) {
          det_lo[k] = std::max(det_lo[k], next[k].iv.lo);
          det_hi_sum[k] += next[k].iv.hi;
        }
      }
      push_consumers(n, s);
    };
    const auto events = [&](NodeId n) { return &s.pool[s.row[n] * width]; };

    for (std::size_t k = 0; k < width; ++k) next[k] = lanes[k].seed;
    mark(origin);

    std::size_t visited = 0;
    while (!s.heap.empty()) {
      std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
      const NodeId c = s.heap.back();
      s.heap.pop_back();
      if (s.ev_epoch[c] == s.epoch) continue;  // seeded origin gate
      // A fault at a robust-free origin can never flip a robust constant.
      if (origin_free && robust_[c] >= 0) continue;
      if (++visited > opts_.max_cone_nodes) {
        // Budget: fall back to the excitation bound — still sound.
        for (const Lane& lane : lanes) {
          FaultBound b{0.0, lane.exc.hi, FaultClass::Uncertain,
                       UndetectableCause::None, true};
          if (b.hi <= 0.0) {  // cannot happen (prechecked); keep it sound
            b.verdict = FaultClass::ProvenUndetectable;
            b.cause = UndetectableCause::Unexcitable;
          }
          bounds[lane.fault] = b;
        }
        return true;
      }

      const Gate& g = net_.gate(c);
      int affected_pins = 0;
      int single_pin = -1;
      s.drivers.clear();
      for (std::size_t k = 0; k < g.fanin.size(); ++k) {
        const NodeId d = g.fanin[k];
        if (s.ev_epoch[d] != s.epoch) continue;
        ++affected_pins;
        single_pin = static_cast<int>(k);
        if (std::find(s.drivers.begin(), s.drivers.end(), d) ==
            s.drivers.end())
          s.drivers.push_back(d);
      }
      if (affected_pins == 0) continue;

      if (affected_pins == 1) {
        const Sens sens = sensitization(c, single_pin);
        s.frechet_widened += sens.widened * width;
        const Ev* in = events(s.drivers[0]);
        for (std::size_t k = 0; k < width; ++k)
          next[k] = through(sens, in[k], s.frechet_widened);
      } else {
        // Several affected fanins (the fault effect reconverges): the
        // output can only differ if some affected driver differs — union
        // bound over the distinct drivers, lower bound 0 (effects may
        // cancel, e.g. XOR of a stem with itself).
        s.frechet_widened += width;
        std::uint64_t fanin_sig = 0;
        for (const NodeId d : g.fanin) fanin_sig |= sb_.sig[d];
        for (std::size_t k = 0; k < width; ++k) {
          double hi = 0.0;
          std::uint64_t sig = 0;
          for (const NodeId d : s.drivers) {
            const Ev& e = events(d)[k];
            hi += e.iv.hi;
            sig |= e.sig;
          }
          next[k].iv = clamp01({0.0, hi});
          next[k].sig = sig | fanin_sig;
        }
      }
      std::size_t live = 0;
      for (std::size_t k = 0; k < width; ++k) live += next[k].iv.hi > 0.0;
      if (live == 0) continue;  // provably never differs: cone pruned
      if (live != width) return false;
      mark(c);
    }

    for (std::size_t k = 0; k < width; ++k) {
      Interval det{det_lo[k], std::min({1.0, det_hi_sum[k], lanes[k].exc.hi})};
      det = clamp01(det);
      FaultBound b{det.lo, det.hi, FaultClass::Uncertain,
                   UndetectableCause::None, false};
      if (det.hi <= 0.0) {
        b.verdict = FaultClass::ProvenUndetectable;
        b.cause = UndetectableCause::Unobservable;
      } else if (det.lo > 0.0) {
        b.verdict = FaultClass::ProvenDetectable;
      }
      bounds[lanes[k].fault] = b;
    }
    return true;
  }

  const Netlist& net_;
  const FaultAnalyzeOptions& opts_;
  InputProbs probs_;
  std::vector<signed char> robust_;   ///< forward lattice: blocks propagation
  std::vector<signed char> learned_;  ///< + implications: good values only
  SignalProbBounds sb_;               ///< learned-pinned good-value intervals
  std::vector<char> plain_reach_;
  std::vector<char> obs_reach_;
  std::size_t learned_count_ = 0;
};

/// Faults per task of the parallel sweep (whole groups, so a task may run
/// over): small enough to balance a few expensive cones across workers,
/// large enough that claiming a task and the cancellation checkpoint cost
/// nothing next to the sweeps.
constexpr std::size_t kFaultChunk = 64;

}  // namespace

FaultAnalysis analyze_faults(const Netlist& net, std::span<const Fault> faults,
                             const FaultAnalyzeOptions& opts) {
  // One executor for the call: constant learning and the sweeps share it.
  ParallelConfig parallel = opts.parallel;
  if (!parallel.executor && parallel.resolved() > 1)
    parallel.executor = make_executor(parallel);
  const Analyzer az(net, opts, parallel);
  for (const Fault& f : faults) az.validate(f);

  FaultAnalysis out;
  out.bounds.resize(faults.size());
  out.learned_constants = az.learned_count();

  // Group the faults by sweep-sharing key: a counting sort that keeps
  // fault order within a group.  `order[group_begin[g] ..
  // group_begin[g + 1])` are group g's faults.
  std::vector<std::size_t> key_begin(2 * net.size() + 1, 0);
  for (const Fault& f : faults) ++key_begin[az.group_key(f) + 1];
  for (std::size_t k = 1; k < key_begin.size(); ++k)
    key_begin[k] += key_begin[k - 1];
  std::vector<std::size_t> group_begin;
  for (std::size_t k = 0; k + 1 < key_begin.size(); ++k)
    if (key_begin[k] != key_begin[k + 1]) group_begin.push_back(key_begin[k]);
  group_begin.push_back(faults.size());
  std::vector<std::size_t> order(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i)
    order[key_begin[az.group_key(faults[i])]++] = i;

  // Tasks are runs of whole groups of at least kFaultChunk faults.
  std::vector<std::size_t> task_begin;  // first group of each task
  for (std::size_t g = 0; g + 1 < group_begin.size(); ++g)
    if (task_begin.empty() ||
        group_begin[g] - group_begin[task_begin.back()] >= kFaultChunk)
      task_begin.push_back(g);
  const std::size_t num_tasks = task_begin.size();
  task_begin.push_back(group_begin.size() - 1);

  // Every bound depends only on its own fault, and each task writes only
  // its own faults' bounds and its own widening tally, so the result is
  // the same for any thread count and any task schedule.
  std::vector<std::optional<SweepScratch>> scratch(parallel.resolved());
  std::vector<std::size_t> task_widened(num_tasks, 0);
  run_tasks(parallel, num_tasks, [&](std::size_t task, unsigned worker) {
    check_cancelled();
    std::optional<SweepScratch>& s = scratch[worker];
    // A traversal marks its origin plus at most max_cone_nodes visits.
    if (!s)
      s.emplace(net.size(), std::min(net.size(), opts.max_cone_nodes) + 1);
    s->frechet_widened = 0;
    for (std::size_t g = task_begin[task]; g < task_begin[task + 1]; ++g)
      az.analyze_group(std::span<const std::size_t>(order).subspan(
                           group_begin[g], group_begin[g + 1] - group_begin[g]),
                       faults, out.bounds.data(), *s);
    task_widened[task] = s->frechet_widened;
  });

  // The census, reduced in fault order after the join.
  for (const FaultBound& b : out.bounds) {
    switch (b.verdict) {
      case FaultClass::ProvenUndetectable:
        ++out.undetectable;
        if (b.cause == UndetectableCause::Unexcitable)
          ++out.unexcitable;
        else
          ++out.unobservable;
        break;
      case FaultClass::ProvenDetectable:
        ++out.detectable;
        break;
      case FaultClass::Uncertain:
        ++out.uncertain;
        break;
    }
    if (b.truncated) ++out.truncated_sweeps;
  }
  for (const std::size_t w : task_widened) out.frechet_widened += w;
  return out;
}

}  // namespace protest
