// Static fault simulation: parallel-pattern good simulation plus per-fault
// event-driven cone resimulation.  Two modes:
//
//   CountDetections  — counts, for every fault, how many patterns detect it.
//                      P_SIM(f) = count / N is the empirical detection
//                      probability the paper correlates PROTEST against
//                      (sect. 4, figs. 5/6).
//   FirstDetection   — records the first detecting pattern index and drops
//                      the fault (fault dropping), for coverage-vs-length
//                      curves (Table 6) and test-set validation (Table 2).
//
// Threading.  Patterns advance in windows of 64-pattern blocks; the good
// machine is simulated once per window and shared read-only, and the live
// fault list is split into fixed-size chunks that the workers of the
// trailing ParallelConfig (0 = all hardware threads) simulate through the
// window, each with its own cone state.  Every per-fault result depends
// only on its own fault and the patterns, so detect_count and first_detect
// are bit-identical for any thread count, in both modes.  A list that fits
// in one chunk runs inline on the caller.  A cancelled CancelScope stops
// the run at the next fault chunk with OperationCancelled.
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
