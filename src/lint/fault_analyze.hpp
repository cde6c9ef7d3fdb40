// Static stuck-at fault analysis: sound per-fault detection-probability
// intervals and untestability proofs, with no simulation at all.
//
// Every fault is classified
//
//   proven_undetectable  — hi == 0.  Either UNEXCITABLE (the implication
//                          engine proves the line constant at the stuck
//                          value, so the faulty value never differs) or
//                          UNOBSERVABLE (every propagation path is
//                          statically blocked: the effect cannot reach a
//                          primary output through nodes that can change).
//                          Such a fault is redundant — simulating it is
//                          pure waste, and its (d, e) test length is
//                          meaningless.
//   proven_detectable    — lo > 0.  Random patterns WILL detect it with
//                          probability at least lo; 1/lo bounds the
//                          expected test length from above.
//   uncertain            — the static argument leaves 0 inside [lo, hi].
//
// The interval construction composes three sound layers:
//
//   1. Constant lattices.  The plain forward lattice (`propagate_constants`)
//      gives ROBUST constants: their derivations pass only through other
//      robust constants, so a fault at a non-robust-constant origin can
//      never change them — they soundly BLOCK propagation.  The implication
//      engine (`learn_constants`) adds LEARNED constants (e.g. XOR(a,a)=0),
//      which hold for every good-circuit value — sound for excitation and
//      for unaffected side inputs, but NOT for blocking affected paths
//      (their derivations may pass through the very nodes the fault flips).
//   2. Signal-probability intervals (`signal_prob_bounds`), sharpened by
//      pinning learned constants, bound the good value of every net.
//   3. A per-fault forward EVENT sweep bounds P(node differs from good)
//      through the fault's fanout cone.  When exactly one fanin of a gate
//      is affected, "output differs" = "fanin differs AND the unaffected
//      side inputs sensitize the pin" — side inputs carry good values, so
//      their static intervals apply; the conjunction uses the interval
//      product when the stem Bloom signatures prove the supports disjoint
//      and the Fréchet-AND bound otherwise.  When several fanins are
//      affected (reconvergence of the fault effect), the event is widened
//      to the union bound [0, min(1, sum of driver event his)].  Detection
//      probability is then bracketed by the per-output events:
//      lo = max over POs of E_po.lo, hi = min(1, excitation hi, sum E_po.hi).
//
// Sweeps are budgeted per fault; a truncated sweep soundly falls back to
// [0, excitation hi].
//
// Shared sweeps.  Every fault's event starts at its gate `f.node` (a stem
// fault's at the node itself, a pin fault's once it crosses the gate).
// From there, the nodes a sweep marks depend on the fault only through
// whether its event at each node can be nonzero: robust-constant blocking
// depends on `origin_free` (the faulted line is not a robust constant),
// the rest on the side pins' good values, the heap order and the visit
// count.  So the faults are grouped by the key (f.node, origin_free) and
// each group is swept once, one LANE per fault carrying that fault's own
// events and detection sums; the heap, the fanin scan and the side-pin
// fold are shared, and a shared fold's Fréchet steps count once per lane.
//   * Lane cap: a traversal carries at most 8 lanes; larger groups are
//     split into several traversals, which is exact.
//   * Divergence fallback: if the lanes disagree at some node (some
//     events underflow to 0 and others do not), the traversal is dropped,
//     the group's widening tally restored, and each of its faults swept
//     alone.
// Every fault's bound and widenings are therefore exactly those of its
// own one-fault sweep.
//
// Threading.  The constant lattices and the signal-probability intervals
// are built once per call; constant learning runs speculatively on the
// executor of FaultAnalyzeOptions::parallel (see learn_constants, which
// stays bit-identical to its serial loop), and the fault groups then run
// in tasks of whole groups on the same executor, each worker with its own
// sweep scratch.  Every bound depends only on its own fault and the
// shared context, and the census and frechet_widened are reduced after
// the join, so the whole FaultAnalysis is bit-identical for any thread
// count.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "lint/implication.hpp"
#include "prob/signal_prob.hpp"
#include "sim/fault.hpp"
#include "util/thread_pool.hpp"

namespace protest {

enum class FaultClass : std::uint8_t {
  ProvenUndetectable,
  ProvenDetectable,
  Uncertain,
};

/// Which static argument proved a fault undetectable.
enum class UndetectableCause : std::uint8_t {
  None,          ///< fault is not proven undetectable
  Unexcitable,   ///< line provably constant at the stuck value
  Unobservable,  ///< every propagation path statically blocked
};

std::string to_string(FaultClass c);
std::string to_string(UndetectableCause c);

struct FaultBound {
  double lo = 0.0;  ///< sound lower bound on the detection probability
  double hi = 1.0;  ///< sound upper bound
  FaultClass verdict = FaultClass::Uncertain;
  UndetectableCause cause = UndetectableCause::None;
  /// The forward event sweep hit its node budget; hi fell back to the
  /// excitation bound (still sound, just wider).
  bool truncated = false;
};

struct FaultAnalyzeOptions {
  /// Uniform input probability used when `input_probs` is empty.
  double p = 0.5;
  /// Explicit per-input tuple (validated); empty = uniform p.
  InputProbs input_probs;
  /// Run the implication engine to learn constants beyond the forward
  /// lattice (sharpens excitation bounds and side-input intervals).
  bool learn = true;
  ImplicationOptions implication;
  /// Per-fault budget on nodes visited by the forward event sweep.
  std::size_t max_cone_nodes = 2048;
  /// Workers for constant learning and the fault sweeps (0 = all
  /// hardware threads).  The result does not depend on it.
  ParallelConfig parallel;
};

struct FaultAnalysis {
  /// Parallel to the analyzed fault list.
  std::vector<FaultBound> bounds;

  // Census.
  std::size_t undetectable = 0;  ///< = unexcitable + unobservable
  std::size_t unexcitable = 0;
  std::size_t unobservable = 0;
  std::size_t detectable = 0;
  std::size_t uncertain = 0;
  std::size_t truncated_sweeps = 0;
  /// Event/side conjunctions that had to take a Fréchet or union-bound
  /// widening — a reconvergence census for the fault layer.
  std::size_t frechet_widened = 0;
  /// Constants the implication engine proved beyond the forward lattice.
  std::size_t learned_constants = 0;

  /// Fraction of faults settled statically (proven either way).
  double settled_fraction() const {
    return bounds.empty()
               ? 0.0
               : static_cast<double>(undetectable + detectable) /
                     static_cast<double>(bounds.size());
  }
};

/// Analyzes every fault in the list against the finalized netlist.
/// Throws std::invalid_argument on an unfinalized netlist, a bad input
/// tuple, or a fault referencing a nonexistent node/pin (checked for the
/// whole list before any sweep runs).  A cancelled CancelScope stops it
/// at the next learning batch or fault task with OperationCancelled.
FaultAnalysis analyze_faults(const Netlist& net, std::span<const Fault> faults,
                             const FaultAnalyzeOptions& opts = {});

}  // namespace protest
