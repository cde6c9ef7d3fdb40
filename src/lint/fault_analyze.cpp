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

/// Per-worker sweep scratch, epoch-stamped to avoid O(n) clears.  Each
/// worker of analyze_faults owns one; nothing in it outlives a fault
/// except the allocations and the widening tally of the current chunk.
/// Workers' scratches sit side by side in one vector and their counters
/// and heap ends change on every event, so each takes whole cache lines:
/// sharing one would serialize the workers on it.
struct alignas(64) SweepScratch {
  explicit SweepScratch(std::size_t n)
      : ev(n), ev_epoch(n, 0), queued_epoch(n, 0) {}

  std::vector<Ev> ev;
  std::vector<std::uint32_t> ev_epoch;
  std::vector<std::uint32_t> queued_epoch;
  std::uint32_t epoch = 0;
  std::vector<NodeId> heap;     ///< min-heap on node id == topological order
  std::vector<NodeId> drivers;  ///< distinct affected drivers of one gate
  /// Fréchet/union widenings taken since the owner last reset it.
  std::size_t frechet_widened = 0;
};

/// The per-netlist static context: built once, then read-only, so every
/// worker shares it and analyzes its faults against its own SweepScratch.
class Analyzer {
 public:
  Analyzer(const Netlist& net, const FaultAnalyzeOptions& opts)
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
      learned_ = learn_constants(net, opts.implication, &st);
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

  /// Bounds one validated fault.  Reads only the shared context and
  /// writes only `s`, so workers run it concurrently.
  FaultBound analyze(const Fault& f, SweepScratch& s) const {
    const NodeId site =
        f.is_stem() ? f.node : net_.gate(f.node).fanin[f.pin];

    // Excitation: the good value of the faulted line must be the opposite
    // of the stuck value.
    const Interval exc =
        f.sa == StuckAt::Zero
            ? Interval{sb_.lo[site], sb_.hi[site]}
            : Interval{1.0 - sb_.hi[site], 1.0 - sb_.lo[site]};
    if (exc.hi <= 0.0)
      return undetectable(UndetectableCause::Unexcitable);

    // Observability prechecks.  The effect surfaces at the stem node
    // itself, or at the faulted pin's consuming gate.
    const bool origin_free = robust_[site] < 0;
    if (f.is_stem()) {
      if (origin_free ? !obs_reach_[f.node] : !plain_reach_[f.node])
        return undetectable(UndetectableCause::Unobservable);
    } else {
      // A robust-constant gate output is immune to a fault on a pin the
      // lattice did not use to derive it (robust derivations only pass
      // through robust-constant fanins, and this driver is robust-free).
      if (origin_free && robust_[f.node] >= 0)
        return undetectable(UndetectableCause::Unobservable);
      if (origin_free ? !obs_reach_[f.node] : !plain_reach_[f.node])
        return undetectable(UndetectableCause::Unobservable);
    }

    return sweep(f, site, exc, origin_free, s);
  }

 private:
  static FaultBound undetectable(UndetectableCause cause) {
    return {0.0, 0.0, FaultClass::ProvenUndetectable, cause, false};
  }

  /// P(E and all unaffected side pins of `gate` sensitize pin `pin`):
  /// the exact event identity for a single affected fanin.
  Ev combine_single(NodeId gate, int pin, Ev e, SweepScratch& s) const {
    const Gate& g = net_.gate(gate);
    const GateType t = g.type;
    if (t == GateType::Buf || t == GateType::Not || t == GateType::Xor ||
        t == GateType::Xnor)
      return e;  // a flip on the single affected pin always propagates

    // AND/NAND propagate iff every side pin is 1; OR/NOR iff every side
    // pin is 0.  Side pins are unaffected, so their good-value intervals
    // apply; fold them with the product where the signatures prove
    // disjointness, Fréchet otherwise.
    const bool need_one = t == GateType::And || t == GateType::Nand;
    Interval sens{1.0, 1.0};
    std::uint64_t sens_sig = 0;
    for (std::size_t k = 0; k < g.fanin.size(); ++k) {
      if (static_cast<int>(k) == pin) continue;
      const NodeId f = g.fanin[k];
      const Interval side = need_one
                                ? Interval{sb_.lo[f], sb_.hi[f]}
                                : Interval{1.0 - sb_.hi[f], 1.0 - sb_.lo[f]};
      if ((sens_sig & sb_.sig[f]) == 0) {
        sens.lo *= side.lo;
        sens.hi *= side.hi;
      } else {
        ++s.frechet_widened;
        sens = and_frechet(sens, side);
      }
      sens_sig |= sb_.sig[f];
    }
    Ev out;
    if ((e.sig & sens_sig) == 0) {
      out.iv = {e.iv.lo * sens.lo, e.iv.hi * sens.hi};
    } else {
      ++s.frechet_widened;
      out.iv = and_frechet(e.iv, sens);
    }
    out.iv = clamp01(out.iv);
    out.sig = e.sig | sens_sig;
    return out;
  }

  void mark(NodeId n, Ev e, double& det_lo, double& det_hi_sum,
            SweepScratch& s) const {
    s.ev[n] = e;
    s.ev_epoch[n] = s.epoch;
    if (net_.is_output(n)) {
      det_lo = std::max(det_lo, e.iv.lo);
      det_hi_sum += e.iv.hi;
    }
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

  FaultBound sweep(const Fault& f, NodeId site, Interval exc,
                   bool origin_free, SweepScratch& s) const {
    ++s.epoch;
    s.heap.clear();
    double det_lo = 0.0, det_hi_sum = 0.0;

    // Seed: the event at the origin.  stem_bit gives the origin variable a
    // signature bit of its own even when its good-value signature is empty
    // (e.g. a learned-constant line).
    Ev origin{exc, sb_.sig[site] | stem_bit(site)};
    if (f.is_stem()) {
      mark(f.node, origin, det_lo, det_hi_sum, s);
      push_consumers(f.node, s);
    } else {
      const Ev eg = combine_single(f.node, f.pin, origin, s);
      if (eg.iv.hi <= 0.0) return undetectable(UndetectableCause::Unobservable);
      mark(f.node, eg, det_lo, det_hi_sum, s);
      push_consumers(f.node, s);
    }

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
        FaultBound b{0.0, exc.hi, FaultClass::Uncertain,
                     UndetectableCause::None, true};
        if (b.hi <= 0.0) {  // cannot happen (prechecked), but keep it sound
          b.verdict = FaultClass::ProvenUndetectable;
          b.cause = UndetectableCause::Unexcitable;
        }
        return b;
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

      Ev e;
      if (affected_pins == 1) {
        e = combine_single(c, single_pin, s.ev[s.drivers[0]], s);
      } else {
        // Several affected fanins (the fault effect reconverges): the
        // output can only differ if some affected driver differs — union
        // bound over the distinct drivers, lower bound 0 (effects may
        // cancel, e.g. XOR of a stem with itself).
        ++s.frechet_widened;
        double hi = 0.0;
        std::uint64_t sig = 0;
        for (const NodeId d : s.drivers) {
          hi += s.ev[d].iv.hi;
          sig |= s.ev[d].sig;
        }
        for (const NodeId d : g.fanin) sig |= sb_.sig[d];
        e.iv = clamp01({0.0, hi});
        e.sig = sig;
      }
      if (e.iv.hi <= 0.0) continue;  // provably never differs: cone pruned
      mark(c, e, det_lo, det_hi_sum, s);
      push_consumers(c, s);
    }

    Interval det{det_lo, std::min({1.0, det_hi_sum, exc.hi})};
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
  InputProbs probs_;
  std::vector<signed char> robust_;   ///< forward lattice: blocks propagation
  std::vector<signed char> learned_;  ///< + implications: good values only
  SignalProbBounds sb_;               ///< learned-pinned good-value intervals
  std::vector<char> plain_reach_;
  std::vector<char> obs_reach_;
  std::size_t learned_count_ = 0;
};

/// Faults per task of the parallel sweep: small enough to balance a few
/// expensive cones across workers, large enough that claiming a task and
/// the cancellation checkpoint cost nothing next to the sweeps.
constexpr std::size_t kFaultChunk = 64;

}  // namespace

FaultAnalysis analyze_faults(const Netlist& net, std::span<const Fault> faults,
                             const FaultAnalyzeOptions& opts) {
  const Analyzer az(net, opts);
  for (const Fault& f : faults) az.validate(f);

  FaultAnalysis out;
  out.bounds.resize(faults.size());
  out.learned_constants = az.learned_count();

  // Every bound depends only on its own fault, and each chunk writes only
  // its own slice of `bounds` and its own widening tally, so the result is
  // the same for any thread count and any task schedule.
  const std::size_t num_chunks =
      (faults.size() + kFaultChunk - 1) / kFaultChunk;
  std::vector<std::optional<SweepScratch>> scratch(opts.parallel.resolved());
  std::vector<std::size_t> chunk_widened(num_chunks, 0);
  run_tasks(opts.parallel, num_chunks, [&](std::size_t chunk, unsigned worker) {
    check_cancelled();
    std::optional<SweepScratch>& s = scratch[worker];
    if (!s) s.emplace(net.size());
    s->frechet_widened = 0;
    const std::size_t end = std::min(faults.size(), (chunk + 1) * kFaultChunk);
    for (std::size_t i = chunk * kFaultChunk; i < end; ++i)
      out.bounds[i] = az.analyze(faults[i], *s);
    chunk_widened[chunk] = s->frechet_widened;
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
  for (const std::size_t w : chunk_widened) out.frechet_widened += w;
  return out;
}

}  // namespace protest
