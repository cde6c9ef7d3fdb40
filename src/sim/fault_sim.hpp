// Static fault simulation: parallel-pattern good simulation plus
// stem-region fault simulation.  Two modes:
//
//   CountDetections  — counts, for every fault, how many patterns detect it.
//                      P_SIM(f) = count / N is the empirical detection
//                      probability the paper correlates PROTEST against
//                      (sect. 4, figs. 5/6).
//   FirstDetection   — records the first detecting pattern index and drops
//                      the fault (fault dropping), for coverage-vs-length
//                      curves (Table 6) and test-set validation (Table 2).
//
// Stem regions.  A node is a stem when it is a primary output or has
// fanout != 1 (a gate that takes one driver on two pins lists it twice);
// every other node belongs to the fanout-free region (FFR) of the stem its
// single-fanout chain ends in.  Inside an FFR a fault effect can leave
// only through the stem, and patterns are bit-parallel, so each bit
// propagates on its own.  Per window and fault: the fault's difference
// word (faulty site value ^ good value) is walked up its chain to the
// stem, reading the good machine for every other fanin (none of them lies
// in the fault's cone); the walk stops once every bit has died.  Per stem:
// one event-driven propagation flips the stem in need = OR of its live
// faults' stem differences and yields obs, the primary-output difference.
// A fault's detection word is then exactly (stem difference & obs): where
// its difference is 1, so is need, and that bit of obs is the stem flip's
// observability in that pattern.  One propagation per stem replaces one
// per fault.
//
// Windows.  Every event carries W 64-pattern words: W is the widest of
// the specialised simulator widths {1, 2, 4, 8, 16} that a 2^20-word
// good-machine budget allows for the netlist's node count (so stress100k
// runs at 8), and no wider than the pattern set needs.  A window is W
// blocks; its good machine is one WordSimulator pass, whose node-major
// W-word layout is what an event reads.  Words past the pattern set are
// masked out of every fault's difference at the site.  FirstDetection
// drops a fault at its first detection and compacts the live list
// between windows, so a dropped fault no longer adds to need; since a
// stem pays for its whole window, FirstDetection ramps its windows up
// from one block (1, 2, 4, ... blocks, then W), as most detectable faults
// drop within the first blocks.  Window boundaries change no result.
//
// Threading.  The live faults are grouped by stem with a stable counting
// sort (stem order, then fault order), and the workers of the trailing
// ParallelConfig (0 = all hardware threads) claim tasks of whole stem
// groups, each with its own propagation state.  Every fault belongs to
// exactly one stem, so result writes are disjoint, and every result
// depends only on its own fault and the patterns, so detect_count and
// first_detect are bit-identical for any thread count, in both modes.  A
// list that fits in one task runs inline on the caller.  A cancelled
// CancelScope stops the run at the next task with OperationCancelled.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lint/fault_analyze.hpp"
#include "netlist/netlist.hpp"
#include "sim/fault.hpp"
#include "sim/pattern.hpp"
#include "util/thread_pool.hpp"

namespace protest {

enum class FaultSimMode { CountDetections, FirstDetection };

struct FaultSimResult {
  std::size_t num_patterns = 0;
  /// Per fault: number of detecting patterns (CountDetections mode only).
  std::vector<std::uint64_t> detect_count;
  /// Per fault: index of the first detecting pattern, or -1 (both modes).
  std::vector<std::int64_t> first_detect;

  /// Fraction of faults detected by the whole set.
  double coverage() const;
  /// Fraction of faults whose first detection is < n patterns.
  double coverage_at(std::size_t n) const;
  /// Empirical per-fault detection probabilities (CountDetections mode).
  std::vector<double> detection_probs() const;
};

FaultSimResult simulate_faults(const Netlist& net, std::span<const Fault> faults,
                               const PatternSet& ps, FaultSimMode mode,
                               const ParallelConfig& parallel = {});

/// Fault simulation pruned and checked by the static fault analysis
/// (bounds parallel to the fault list, from analyze_faults on the same
/// list).  Proven-undetectable faults are never simulated — they keep
/// detect_count 0 / first_detect -1, which is exact, not an estimate.  In
/// CountDetections mode the static intervals act as a correctness oracle:
/// an empirical detection probability outside [lo - 6*sigma, hi + 6*sigma]
/// (sigma = 1 / (2*sqrt(N)), the worst-case binomial deviation) means
/// either the simulator or the static analysis is broken, and throws
/// std::logic_error; the check runs after the parallel simulation has
/// joined, over the faults in order.  Throws std::invalid_argument on a
/// size mismatch.
FaultSimResult simulate_faults_pruned(const Netlist& net,
                                      std::span<const Fault> faults,
                                      const PatternSet& ps, FaultSimMode mode,
                                      const FaultAnalysis& fa,
                                      const ParallelConfig& parallel = {});

}  // namespace protest
