#include "protest/report.hpp"

#include <algorithm>
#include <ostream>
#include <span>
#include <sstream>

#include "analysis/table.hpp"
#include "testlen/test_length.hpp"

namespace protest {
namespace {

/// The shared renderer; both public entry points flatten to this view.
void write_report_impl(std::ostream& out, const Netlist& net,
                       std::span<const Fault> faults, const std::string& engine,
                       std::span<const double> input_probs,
                       std::span<const double> signal_probs,
                       std::span<const double> stem_observability,
                       std::span<const double> detection_probs,
                       const ReportOptions& opts) {
  out << "PROTEST testability report\n"
      << "==========================\n"
      << "circuit: " << net.inputs().size() << " inputs, "
      << net.outputs().size() << " outputs, " << net.num_gates() << " gates; "
      << faults.size() << " faults analyzed\n";
  if (!engine.empty())
    out << "signal-probability engine: " << engine << "\n";

  out << "\ninput signal probabilities:\n ";
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out << ' ' << net.name_of(inputs[i]) << '=' << fmt(input_probs[i], 3);
    if (i % 8 == 7 && i + 1 < inputs.size()) out << "\n ";
  }
  out << '\n';

  if (opts.signal_probabilities) {
    out << "\nsignal probabilities and observabilities:\n";
    TextTable t({"node", "P(1)", "s(x)"});
    for (NodeId n = 0; n < net.size(); ++n) {
      if (net.is_input(n)) continue;
      t.add_row({net.name_of(n), fmt(signal_probs[n], 4),
                 fmt(stem_observability[n], 4)});
    }
    out << t.str();
  }

  if (opts.fault_list) {
    out << "\nfault detection probabilities (hardest first):\n";
    std::vector<std::size_t> order(faults.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return detection_probs[a] < detection_probs[b];
    });
    const std::size_t rows = opts.max_fault_rows == 0
                                 ? order.size()
                                 : std::min(opts.max_fault_rows, order.size());
    TextTable t({"fault", "P_detect"});
    for (std::size_t i = 0; i < rows; ++i)
      t.add_row({to_string(net, faults[order[i]]),
                 fmt(detection_probs[order[i]], 6)});
    out << t.str();
    if (rows < order.size())
      out << "(" << order.size() - rows << " easier faults omitted)\n";
  }

  out << "\nrequired random-pattern counts:\n";
  TextTable t({"d", "e", "N"});
  const std::vector<std::uint64_t> lengths =
      required_test_lengths(detection_probs, opts.d_grid, opts.e_grid);
  std::size_t i = 0;
  for (double d : opts.d_grid)
    for (double e : opts.e_grid) {
      const std::uint64_t n = lengths[i++];
      t.add_row({fmt(d, 2), fmt(e, 3),
                 n == kInfiniteTestLength ? "unreachable" : fmt_int(n)});
    }
  out << t.str();
}

}  // namespace

void write_report(std::ostream& out, const Protest& tool,
                  const ProtestReport& report, ReportOptions opts) {
  write_report_impl(out, tool.netlist(), tool.faults(), report.engine,
                    report.input_probs, report.signal_probs,
                    report.observability.stem, report.detection_probs, opts);
}

std::string report_string(const Protest& tool, const ProtestReport& report,
                          ReportOptions opts) {
  std::ostringstream os;
  write_report(os, tool, report, std::move(opts));
  return os.str();
}

void write_report(std::ostream& out, const AnalysisResult& result,
                  ReportOptions opts) {
  write_report_impl(out, result.netlist(), result.faults(),
                    std::string(result.engine()), result.input_probs(),
                    result.signal_probs(), result.observability().stem,
                    result.detection_probs(), opts);
}

std::string report_string(const AnalysisResult& result, ReportOptions opts) {
  std::ostringstream os;
  write_report(os, result, std::move(opts));
  return os.str();
}

}  // namespace protest
