#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace protest {
namespace {

// The parser is allocation-lean for 100k+-line files: the whole stream is
// slurped once and every net name is a string_view into that buffer —
// std::strings materialize only when nodes are created.  Definitions
// resolve in FILE ORDER (forward references via DFS), so node ids follow
// the textual order and write_bench(read_bench(write_bench(net))) is
// byte-stable.

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Case-insensitive equality against an UPPERCASE reference, no allocation.
bool ieq(std::string_view s, std::string_view upper_ref) {
  if (s.size() != upper_ref.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i)
    if (std::toupper(static_cast<unsigned char>(s[i])) != upper_ref[i])
      return false;
  return true;
}

std::optional<GateType> gate_type_from(std::string_view op) {
  if (ieq(op, "AND")) return GateType::And;
  if (ieq(op, "NAND")) return GateType::Nand;
  if (ieq(op, "OR")) return GateType::Or;
  if (ieq(op, "NOR")) return GateType::Nor;
  if (ieq(op, "XOR")) return GateType::Xor;
  if (ieq(op, "XNOR")) return GateType::Xnor;
  if (ieq(op, "NOT") || ieq(op, "INV")) return GateType::Not;
  if (ieq(op, "BUF") || ieq(op, "BUFF")) return GateType::Buf;
  if (ieq(op, "CONST0")) return GateType::Const0;
  if (ieq(op, "CONST1")) return GateType::Const1;
  return std::nullopt;
}

[[noreturn]] void fail(int line, const std::string& msg) {
  throw BenchParseError("bench:" + std::to_string(line) + ": " + msg);
}

struct Def {
  std::string_view name;
  GateType type;
  std::uint32_t args_begin;  ///< slice of the shared args arena
  std::uint32_t args_end;
  int line;
};

Netlist read_bench_text(std::string_view text) {
  // Reserve from a first-pass line count: every definition occupies one
  // line, and almost every line is a definition.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;

  std::vector<std::string_view> input_order;
  std::vector<std::string_view> output_order;
  std::unordered_set<std::string_view> output_seen;
  std::vector<Def> defs;
  std::vector<std::string_view> args_arena;
  std::unordered_map<std::string_view, std::uint32_t> def_index;
  std::unordered_map<std::string_view, NodeId> ids;
  defs.reserve(lines);
  args_arena.reserve(3 * lines);
  def_index.reserve(lines);
  ids.reserve(lines);

  constexpr NodeId kInputPending = kNoNode - 1;

  int lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      // INPUT(x) or OUTPUT(x)
      const auto lp = line.find('(');
      const auto rp = line.rfind(')');
      if (lp == std::string_view::npos || rp == std::string_view::npos ||
          rp < lp)
        fail(lineno, "expected INPUT(...), OUTPUT(...), or an assignment");
      const std::string_view kw = trim(line.substr(0, lp));
      const std::string_view arg = trim(line.substr(lp + 1, rp - lp - 1));
      if (arg.empty()) fail(lineno, std::string(kw) + " needs a net name");
      if (ieq(kw, "INPUT")) {
        if (!ids.emplace(arg, kInputPending).second)
          fail(lineno, "duplicate INPUT " + std::string(arg));
        input_order.push_back(arg);
      } else if (ieq(kw, "OUTPUT")) {
        if (!output_seen.insert(arg).second)
          fail(lineno, "duplicate OUTPUT " + std::string(arg));
        output_order.push_back(arg);
      } else {
        std::string up(kw);
        for (char& c : up) c = static_cast<char>(std::toupper(
            static_cast<unsigned char>(c)));
        fail(lineno, "unknown declaration '" + up + "'");
      }
      continue;
    }

    const std::string_view lhs = trim(line.substr(0, eq));
    const std::string_view rhs = trim(line.substr(eq + 1));
    if (lhs.empty()) fail(lineno, "missing net name before '='");
    const auto lp = rhs.find('(');
    const auto rp = rhs.rfind(')');
    if (lp == std::string_view::npos || rp == std::string_view::npos || rp < lp)
      fail(lineno, "expected <net> = OP(args)");
    const std::string_view op = trim(rhs.substr(0, lp));
    const auto type = gate_type_from(op);
    if (!type) {
      if (ieq(op, "DFF") || ieq(op, "DFFSR") || ieq(op, "LATCH"))
        fail(lineno, "sequential element '" + std::string(op) +
                         "' not supported: PROTEST analyses combinational "
                         "circuits (use scan extraction first)");
      fail(lineno, "unknown gate type '" + std::string(op) + "'");
    }

    const std::uint32_t args_begin = static_cast<std::uint32_t>(args_arena.size());
    std::string_view body = rhs.substr(lp + 1, rp - lp - 1);
    while (!body.empty()) {
      const std::size_t comma = body.find(',');
      const std::string_view tok = trim(body.substr(0, comma));
      if (tok.empty()) {
        if (comma == std::string_view::npos && args_arena.size() == args_begin)
          break;  // empty argument list: CONST0()
        fail(lineno, "empty operand in argument list");
      }
      args_arena.push_back(tok);
      if (comma == std::string_view::npos) break;
      body = body.substr(comma + 1);
    }
    if (auto it = ids.find(lhs); it != ids.end() && it->second == kInputPending)
      fail(lineno, "net '" + std::string(lhs) + "' already an INPUT");
    const std::uint32_t args_end = static_cast<std::uint32_t>(args_arena.size());
    if (!def_index
             .emplace(lhs, static_cast<std::uint32_t>(defs.size()))
             .second)
      fail(lineno, "net '" + std::string(lhs) + "' defined twice");
    defs.push_back(Def{lhs, *type, args_begin, args_end, lineno});
  }

  Netlist net;
  net.reserve(input_order.size() + defs.size());
  for (const std::string_view name : input_order)
    ids[name] = net.add_input(std::string(name));

  // Resolve definitions depth-first IN FILE ORDER (forward references are
  // legal in .bench).  File-order ids make write -> read -> write
  // byte-stable.
  enum class Mark : char { White, Grey, Black };
  std::vector<Mark> marks(defs.size(), Mark::White);
  // Explicit stack to keep deep netlists from overflowing the call stack.
  struct Frame {
    std::uint32_t def;
    std::uint32_t next_arg = 0;
  };
  std::vector<Frame> stack;
  std::vector<NodeId> fanin;
  // Every Grey def sits on the DFS stack, so the cycle is the stack suffix
  // starting at the back edge's target, closed by repeating that net.
  auto cycle_fail = [&](std::uint32_t target) {
    std::size_t start = 0;
    while (start < stack.size() && stack[start].def != target) ++start;
    std::string path;
    for (std::size_t k = start; k < stack.size(); ++k) {
      const Def& pd = defs[stack[k].def];
      path += std::string(pd.name) + " (line " + std::to_string(pd.line) +
              ") -> ";
    }
    path += std::string(defs[target].name);
    fail(defs[target].line, "combinational cycle: " + path);
  };
  auto resolve = [&](std::uint32_t root) {
    stack.clear();
    stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& fr = stack.back();
      const Def& d = defs[fr.def];
      if (fr.next_arg == 0) {
        Mark& m = marks[fr.def];
        if (m == Mark::Grey) cycle_fail(fr.def);
        if (m == Mark::Black) {
          stack.pop_back();
          continue;
        }
        m = Mark::Grey;
      }
      bool descended = false;
      while (fr.next_arg < d.args_end - d.args_begin) {
        const std::string_view a = args_arena[d.args_begin + fr.next_arg];
        ++fr.next_arg;
        if (ids.contains(a)) continue;
        const auto dit = def_index.find(a);
        if (dit == def_index.end())
          throw BenchParseError("bench: net '" + std::string(a) +
                                "' is referenced but never defined");
        if (marks[dit->second] == Mark::Grey) cycle_fail(dit->second);
        stack.push_back({dit->second, 0});
        descended = true;
        break;
      }
      if (descended) continue;
      fanin.clear();
      for (std::uint32_t k = d.args_begin; k < d.args_end; ++k)
        fanin.push_back(ids.at(args_arena[k]));
      try {
        ids[d.name] = net.add_gate(d.type, fanin, std::string(d.name));
      } catch (const std::invalid_argument& e) {
        fail(d.line, e.what());
      }
      marks[fr.def] = Mark::Black;
      stack.pop_back();
    }
  };

  for (std::uint32_t i = 0; i < defs.size(); ++i) resolve(i);
  if (output_order.empty())
    throw BenchParseError("bench: no OUTPUT declarations");
  for (const std::string_view o : output_order) {
    const auto it = ids.find(o);
    if (it == ids.end() || it->second == kInputPending) {
      if (it == ids.end())
        throw BenchParseError("bench: OUTPUT net '" + std::string(o) +
                              "' never defined");
    }
    net.mark_output(it->second);
  }
  net.finalize();
  return net;
}

}  // namespace

Netlist read_bench(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = std::move(buf).str();
  return read_bench_text(text);
}

Netlist read_bench_string(const std::string& text) {
  return read_bench_text(text);
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw BenchParseError("bench: cannot open file '" + path + "'");
  return read_bench(f);
}

void write_bench(std::ostream& out, const Netlist& net) {
  // Assign unique printable names.
  std::unordered_map<std::string_view, NodeId> used;
  used.reserve(net.size());
  std::vector<std::string> names(net.size());
  for (NodeId n = 0; n < net.size(); ++n) {
    const std::string& nm = net.gate(n).name;
    if (!nm.empty()) {
      names[n] = nm;
      used.emplace(names[n], n);
    }
  }
  for (NodeId n = 0; n < net.size(); ++n) {
    if (!names[n].empty()) continue;
    // Appended: see make_random_circuit on -Wrestrict.
    std::string cand = std::string("n").append(std::to_string(n));
    while (used.contains(cand)) cand += "_";
    names[n] = std::move(cand);
    used.emplace(names[n], n);
  }

  std::string buf;
  buf.reserve(24 * net.size());
  buf += "# written by protest\n";
  for (NodeId i : net.inputs()) {
    buf += "INPUT(";
    buf += names[i];
    buf += ")\n";
  }
  for (NodeId o : net.outputs()) {
    buf += "OUTPUT(";
    buf += names[o];
    buf += ")\n";
  }
  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    if (g.type == GateType::Input) continue;
    buf += names[n];
    buf += " = ";
    switch (g.type) {
      case GateType::Buf: buf += "BUFF"; break;
      case GateType::Not: buf += "NOT"; break;
      default: buf += to_string(g.type); break;
    }
    buf += '(';
    for (std::size_t i = 0; i < g.fanin.size(); ++i) {
      if (i) buf += ", ";
      buf += names[g.fanin[i]];
    }
    buf += ")\n";
  }
  out << buf;
}

std::string write_bench_string(const Netlist& net) {
  std::ostringstream ss;
  write_bench(ss, net);
  return ss.str();
}

}  // namespace protest
