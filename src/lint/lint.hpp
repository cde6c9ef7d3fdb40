// Pass-manager-driven static analysis over a finalized Netlist.
//
// Six passes, each a pure structural check that costs one linear sweep:
//
//   pass id         severity        finds
//   --------------  --------------  -------------------------------------
//   unused-net      warning         nets (incl. primary inputs) that feed
//                                   nothing and are not outputs
//   dead-gate       warning         nodes with fanout but no path to any
//                                   primary output (reverse reachability)
//   const-gate      error on POs,   gates provably stuck at 0/1 by
//                   warning else    three-valued constant propagation
//   duplicate-gate  warning         structurally identical gates (same
//                                   type, same fanin multiset)
//   prob-bounds     warning         nets whose static probability
//                                   interval pins them near 0 or 1 —
//                                   statically hard-to-test cones, found
//                                   before any simulation budget is spent
//   structure       info            depth / fanout / stem / reconvergence
//                                   census for capacity planning
//
// Two further OPT-IN passes lift the analysis to the fault level (they run
// the static fault analyzer, so they cost more than a linear sweep; enable
// them with LintOptions::faults or by naming them explicitly):
//
//   redundant-fault  warning        stuck-at faults proven undetectable
//                                   (redundant logic: detection probability
//                                   is exactly 0, the (d,e) test length is
//                                   meaningless)
//   untestable-fault warning        faults whose static detection interval
//                                   pins them below near_constant_eps —
//                                   random patterns will (almost) never
//                                   catch them; plus a closing census of
//                                   the classification
//
// The PROTEST angle: a stuck or near-constant net is an (almost)
// undetectable fault site, and reconvergence density predicts estimator
// error — all diagnosable from structure alone, which is exactly the
// paper's pitch applied before its own analysis runs.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lint/prob_bounds.hpp"
#include "netlist/netlist.hpp"
#include "util/thread_pool.hpp"

namespace protest {

class JsonWriter;

enum class LintSeverity : std::uint8_t { Info, Warning, Error };

std::string_view to_string(LintSeverity s);

/// One structured finding.
struct LintDiagnostic {
  std::string pass;          ///< pass id, e.g. "const-gate"
  LintSeverity severity = LintSeverity::Warning;
  NodeId node = kNoNode;     ///< subject node (kNoNode for netlist-wide)
  std::string name;          ///< subject net name (Netlist::name_of)
  std::string message;       ///< what is wrong
  std::string hint;          ///< how to fix it
};

/// Netlist-shape census produced by the `structure` pass.
struct LintStructure {
  std::size_t nodes = 0;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t gates = 0;
  unsigned depth = 0;
  std::size_t stems = 0;
  std::size_t max_fanin = 0;
  std::size_t max_fanout = 0;
  std::size_t widest_level = 0;       ///< most nodes on one logic level
  std::size_t reconvergent_gates = 0; ///< Fréchet-folded gates (prob_bounds)
};

struct LintOptions {
  /// Pass ids to run; empty = every pass.  Unknown ids throw.
  std::vector<std::string> passes;
  /// Uniform input signal probability for the prob-bounds pass...
  double p = 0.5;
  /// ...or a full per-input tuple overriding it (size = #inputs).
  std::vector<double> input_probs;
  /// prob-bounds flags nets with hi < eps or lo > 1 - eps; the
  /// untestable-fault pass flags faults with 0 < hi < eps.
  double near_constant_eps = 0.01;
  /// Opt-in: include the fault-level passes (redundant-fault,
  /// untestable-fault) when `passes` is empty.  Naming a fault pass in
  /// `passes` explicitly runs it regardless.
  bool faults = false;
  /// Workers for the fault-level passes' per-fault analysis (0 = all
  /// hardware threads); the report does not depend on it.
  ParallelConfig parallel;
  /// Per-pass diagnostic cap; excess findings are counted in the summary
  /// and acknowledged with one closing info diagnostic (never silent).
  std::size_t max_per_pass = 100;
};

struct LintReport {
  std::vector<LintDiagnostic> diagnostics;
  LintStructure structure;
  std::vector<std::string> passes_run;
  /// Full severity totals — they keep counting past max_per_pass.
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t infos = 0;

  bool clean() const { return errors == 0 && warnings == 0; }

  /// Writes the report as one JSON object in value position.
  void write(JsonWriter& w) const;
  std::string to_json(int indent = 0) const;
  /// Human-readable listing: one line per diagnostic plus a summary.
  std::string to_text() const;
};

/// All pass ids, in execution order.
std::span<const std::string_view> lint_pass_names();

/// Runs the selected passes over a finalized netlist.
LintReport run_lint(const Netlist& net, const LintOptions& opts = {});

}  // namespace protest
