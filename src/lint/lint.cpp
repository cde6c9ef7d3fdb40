#include "lint/lint.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "analysis/json.hpp"
#include "lint/fault_analyze.hpp"
#include "lint/fold.hpp"
#include "prob/signal_prob.hpp"

namespace protest {
namespace {

constexpr std::string_view kPassNames[] = {
    "unused-net",  "dead-gate", "const-gate",      "duplicate-gate",
    "prob-bounds", "structure", "redundant-fault", "untestable-fault",
};
constexpr std::size_t kNumPasses = std::size(kPassNames);
enum Pass : std::size_t {
  kUnused = 0,
  kDead,
  kConst,
  kDuplicate,
  kProbBounds,
  kStructure,
  kRedundantFault,
  kUntestableFault,
};

std::string fmt_prob(double p) {
  JsonWriter w(0);
  w.value(p);
  return w.str();
}

LintStructure census(const Netlist& net) {
  LintStructure st;
  st.nodes = net.size();
  st.inputs = net.inputs().size();
  st.outputs = net.outputs().size();
  st.gates = net.num_gates();
  st.depth = net.depth();
  st.stems = net.stems().size();
  std::vector<std::size_t> per_level(static_cast<std::size_t>(net.depth()) + 1,
                                     0);
  for (NodeId id = 0; id < net.size(); ++id) {
    st.max_fanin = std::max(st.max_fanin, net.gate(id).fanin.size());
    st.max_fanout = std::max(st.max_fanout, net.fanout(id).size());
    st.widest_level =
        std::max(st.widest_level, ++per_level[net.level(id)]);
  }
  return st;
}

}  // namespace

std::string_view to_string(LintSeverity s) {
  switch (s) {
    case LintSeverity::Info:
      return "info";
    case LintSeverity::Warning:
      return "warning";
    case LintSeverity::Error:
      return "error";
  }
  return "?";
}

std::span<const std::string_view> lint_pass_names() { return kPassNames; }

LintReport run_lint(const Netlist& net, const LintOptions& opts) {
  if (!net.finalized())
    throw std::invalid_argument("run_lint: netlist must be finalized");

  bool enabled[kNumPasses];
  std::fill(std::begin(enabled), std::end(enabled), opts.passes.empty());
  // The fault passes are opt-in: "all passes" includes them only when
  // LintOptions::faults is set (they run the full static fault analyzer).
  enabled[kRedundantFault] = opts.passes.empty() && opts.faults;
  enabled[kUntestableFault] = opts.passes.empty() && opts.faults;
  for (const std::string& p : opts.passes) {
    const auto* it =
        std::find(std::begin(kPassNames), std::end(kPassNames), p);
    if (it == std::end(kPassNames)) {
      std::string known;
      for (const std::string_view k : kPassNames) {
        if (!known.empty()) known += ", ";
        known += k;
      }
      throw std::invalid_argument("unknown lint pass '" + p +
                                  "' (known passes: " + known + ")");
    }
    enabled[it - std::begin(kPassNames)] = true;
  }

  LintReport rep;
  rep.structure = census(net);
  for (std::size_t i = 0; i < kNumPasses; ++i)
    if (enabled[i]) rep.passes_run.emplace_back(kPassNames[i]);

  // Per-pass emission with the diagnostic cap: totals keep counting,
  // truncation is acknowledged with a closing note — never silent.
  std::string_view cur_pass;
  std::size_t emitted = 0;
  std::size_t suppressed = 0;
  const auto begin_pass = [&](Pass p) {
    cur_pass = kPassNames[p];
    emitted = 0;
    suppressed = 0;
  };
  const auto finding = [&](LintSeverity sev, NodeId node, std::string msg,
                           std::string hint) {
    switch (sev) {
      case LintSeverity::Error:
        ++rep.errors;
        break;
      case LintSeverity::Warning:
        ++rep.warnings;
        break;
      case LintSeverity::Info:
        ++rep.infos;
        break;
    }
    if (emitted >= opts.max_per_pass) {
      ++suppressed;
      return;
    }
    ++emitted;
    rep.diagnostics.push_back({std::string(cur_pass), sev, node,
                               node == kNoNode ? std::string() : net.name_of(node),
                               std::move(msg), std::move(hint)});
  };
  const auto end_pass = [&] {
    if (suppressed == 0) return;
    rep.diagnostics.push_back(
        {std::string(cur_pass), LintSeverity::Info, kNoNode, {},
         std::to_string(suppressed) +
             " further findings suppressed (max_per_pass = " +
             std::to_string(opts.max_per_pass) + ")",
         "raise LintOptions::max_per_pass for the full list"});
  };

  const std::size_t n = net.size();

  if (enabled[kUnused]) {
    begin_pass(kUnused);
    for (NodeId id = 0; id < n; ++id) {
      if (!net.fanout(id).empty() || net.is_output(id)) continue;
      if (net.is_input(id))
        finding(LintSeverity::Warning, id,
                "primary input '" + net.name_of(id) +
                    "' feeds no gate and is not an output",
                "remove the input or wire it into the logic");
      else
        finding(LintSeverity::Warning, id,
                "net '" + net.name_of(id) + "' (" +
                    to_string(net.gate(id).type) +
                    ") feeds nothing and is not an output",
                "delete the gate or mark its net as a primary output");
    }
    end_pass();
  }

  if (enabled[kDead]) {
    begin_pass(kDead);
    // Reverse reachability from the primary outputs over the fanin edges.
    std::vector<char> reach(n, 0);
    std::vector<NodeId> stack;
    for (const NodeId o : net.outputs()) {
      if (!reach[o]) {
        reach[o] = 1;
        stack.push_back(o);
      }
    }
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      for (const NodeId f : net.gate(id).fanin) {
        if (!reach[f]) {
          reach[f] = 1;
          stack.push_back(f);
        }
      }
    }
    for (NodeId id = 0; id < n; ++id) {
      // Fanout-free sinks are the unused-net pass's finding; this pass
      // reports the cones behind them.
      if (reach[id] || net.fanout(id).empty()) continue;
      if (net.is_input(id))
        finding(LintSeverity::Warning, id,
                "primary input '" + net.name_of(id) +
                    "' reaches no primary output (feeds only dead logic)",
                "remove the dead cone or observe it with an output");
      else
        finding(LintSeverity::Warning, id,
                "gate '" + net.name_of(id) + "' (" +
                    to_string(net.gate(id).type) +
                    ") has no path to any primary output",
                "remove the dead cone or observe it with an output");
    }
    end_pass();
  }

  std::vector<signed char> value;
  if (enabled[kConst] || enabled[kProbBounds]) value = propagate_constants(net);

  if (enabled[kConst]) {
    begin_pass(kConst);
    for (NodeId id = 0; id < n; ++id) {
      const GateType t = net.gate(id).type;
      if (t == GateType::Input || t == GateType::Const0 ||
          t == GateType::Const1)
        continue;
      if (value[id] < 0) continue;
      const char bit = static_cast<char>('0' + value[id]);
      if (net.is_output(id))
        finding(LintSeverity::Error, id,
                std::string("primary output '") + net.name_of(id) +
                    "' is provably stuck at " + bit +
                    " — every fault in its cone is undetectable through it",
                "a constant output is almost certainly a capture bug; fix "
                "the netlist or drop the output");
      else
        finding(LintSeverity::Warning, id,
                "gate '" + net.name_of(id) + "' (" + to_string(t) +
                    ") is provably stuck at " + bit,
                "fold_constants() rewrites it to a constant driver");
    }
    end_pass();
  }

  if (enabled[kDuplicate]) {
    begin_pass(kDuplicate);
    // Structural hash key: gate type + sorted fanin ids (every n-ary type
    // in the library is commutative, so the fanin multiset is canonical).
    std::unordered_map<std::string, NodeId> seen;
    std::string key;
    std::vector<NodeId> sorted;
    for (NodeId id = 0; id < n; ++id) {
      const Gate& g = net.gate(id);
      if (g.type == GateType::Input) continue;
      sorted.assign(g.fanin.begin(), g.fanin.end());
      std::sort(sorted.begin(), sorted.end());
      key.clear();
      key.push_back(static_cast<char>(g.type));
      for (const NodeId f : sorted)
        key.append(reinterpret_cast<const char*>(&f), sizeof(f));
      const auto [it, inserted] = seen.emplace(key, id);
      if (inserted) continue;
      finding(LintSeverity::Warning, id,
              "gate '" + net.name_of(id) + "' duplicates gate '" +
                  net.name_of(it->second) + "' (same " +
                  to_string(g.type) + " over the same fanins)",
              "merge the duplicates and reconnect the fanout");
    }
    end_pass();
  }

  SignalProbBounds bounds;
  if (enabled[kProbBounds] || enabled[kStructure]) {
    const InputProbs probs = opts.input_probs.empty()
                                 ? uniform_input_probs(net, opts.p)
                                 : opts.input_probs;
    bounds = signal_prob_bounds(net, probs);
    rep.structure.reconvergent_gates = bounds.frechet_gates;
  }

  if (enabled[kProbBounds]) {
    begin_pass(kProbBounds);
    const double eps = opts.near_constant_eps;
    for (NodeId id = 0; id < n; ++id) {
      const GateType t = net.gate(id).type;
      if (t == GateType::Input || t == GateType::Const0 ||
          t == GateType::Const1)
        continue;
      if (value[id] >= 0) continue;  // const-gate territory
      if (bounds.hi[id] < eps)
        finding(LintSeverity::Warning, id,
                "net '" + net.name_of(id) +
                    "' is statically near-constant 0: P(1) <= " +
                    fmt_prob(bounds.hi[id]) +
                    " — stuck-at-0 faults here are (nearly) undetectable "
                    "by random patterns",
                "add a test point or weighted patterns for this cone");
      else if (bounds.lo[id] > 1.0 - eps)
        finding(LintSeverity::Warning, id,
                "net '" + net.name_of(id) +
                    "' is statically near-constant 1: P(1) >= " +
                    fmt_prob(bounds.lo[id]) +
                    " — stuck-at-1 faults here are (nearly) undetectable "
                    "by random patterns",
                "add a test point or weighted patterns for this cone");
    }
    end_pass();
  }

  if (enabled[kStructure]) {
    begin_pass(kStructure);
    const LintStructure& st = rep.structure;
    finding(LintSeverity::Info, kNoNode,
            "depth " + std::to_string(st.depth) + ", " +
                std::to_string(st.stems) + " stems, max fanin " +
                std::to_string(st.max_fanin) + ", max fanout " +
                std::to_string(st.max_fanout) + ", widest level " +
                std::to_string(st.widest_level) + " nodes, " +
                std::to_string(st.reconvergent_gates) +
                " possibly-reconvergent gates",
            "reconvergence density predicts estimator error; prefer exact "
            "engines on dense cones");
    end_pass();
  }

  if (enabled[kRedundantFault] || enabled[kUntestableFault]) {
    const std::vector<Fault> faults = collapsed_fault_list(net);
    FaultAnalyzeOptions fo;
    fo.p = opts.p;
    fo.input_probs = opts.input_probs;
    fo.parallel = opts.parallel;
    const FaultAnalysis fa = analyze_faults(net, faults, fo);

    if (enabled[kRedundantFault]) {
      begin_pass(kRedundantFault);
      for (std::size_t i = 0; i < faults.size(); ++i) {
        const FaultBound& b = fa.bounds[i];
        if (b.verdict != FaultClass::ProvenUndetectable) continue;
        finding(LintSeverity::Warning, faults[i].node,
                "fault " + to_string(net, faults[i]) +
                    " is provably undetectable (" + to_string(b.cause) +
                    ") — the logic it sits on is redundant",
                "no pattern set can detect it; fold the redundant logic and "
                "exclude the fault from test-length budgeting");
      }
      end_pass();
    }

    if (enabled[kUntestableFault]) {
      begin_pass(kUntestableFault);
      const double eps = opts.near_constant_eps;
      for (std::size_t i = 0; i < faults.size(); ++i) {
        const FaultBound& b = fa.bounds[i];
        if (b.hi <= 0.0 || b.hi >= eps) continue;
        finding(LintSeverity::Warning, faults[i].node,
                "fault " + to_string(net, faults[i]) +
                    " has static detection probability <= " + fmt_prob(b.hi) +
                    " — (nearly) untestable by random patterns",
                "add a test point or weighted patterns for this cone");
      }
      finding(LintSeverity::Info, kNoNode,
              std::to_string(faults.size()) + " collapsed faults: " +
                  std::to_string(fa.undetectable) + " proven undetectable (" +
                  std::to_string(fa.unexcitable) + " unexcitable, " +
                  std::to_string(fa.unobservable) + " unobservable), " +
                  std::to_string(fa.detectable) + " proven detectable, " +
                  std::to_string(fa.uncertain) + " uncertain; " +
                  std::to_string(fa.learned_constants) + " learned constants",
              "proven-undetectable faults are skipped by pruned fault "
              "simulation; uncertain ones need dynamic analysis");
      end_pass();
    }
  }

  return rep;
}

void LintReport::write(JsonWriter& w) const {
  w.begin_object();
  w.key("netlist").begin_object();
  w.key("nodes").value(structure.nodes);
  w.key("inputs").value(structure.inputs);
  w.key("outputs").value(structure.outputs);
  w.key("gates").value(structure.gates);
  w.end_object();
  w.key("passes").begin_array();
  for (const std::string& p : passes_run) w.value(p);
  w.end_array();
  w.key("summary").begin_object();
  w.key("errors").value(errors);
  w.key("warnings").value(warnings);
  w.key("infos").value(infos);
  w.key("clean").value(clean());
  w.end_object();
  w.key("structure").begin_object();
  w.key("depth").value(structure.depth);
  w.key("stems").value(structure.stems);
  w.key("max_fanin").value(structure.max_fanin);
  w.key("max_fanout").value(structure.max_fanout);
  w.key("widest_level").value(structure.widest_level);
  w.key("reconvergent_gates").value(structure.reconvergent_gates);
  w.end_object();
  w.key("diagnostics").begin_array();
  for (const LintDiagnostic& d : diagnostics) {
    w.begin_object();
    w.key("pass").value(d.pass);
    w.key("severity").value(to_string(d.severity));
    if (d.node == kNoNode)
      w.key("node").null();
    else
      w.key("node").value(d.node);
    if (!d.name.empty()) w.key("name").value(d.name);
    w.key("message").value(d.message);
    w.key("hint").value(d.hint);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string LintReport::to_json(int indent) const {
  JsonWriter w(indent);
  write(w);
  return w.str();
}

std::string LintReport::to_text() const {
  std::string out;
  for (const LintDiagnostic& d : diagnostics) {
    out += to_string(d.severity);
    out += '[';
    out += d.pass;
    out += "] ";
    out += d.message;
    out += '\n';
    if (!d.hint.empty()) {
      out += "    hint: ";
      out += d.hint;
      out += '\n';
    }
  }
  out += "lint: " + std::to_string(errors) + " error(s), " +
         std::to_string(warnings) + " warning(s), " + std::to_string(infos) +
         " info(s) — " + std::to_string(structure.gates) + " gates, depth " +
         std::to_string(structure.depth) + ", " +
         std::to_string(structure.stems) + " stems\n";
  return out;
}

}  // namespace protest
