// pbtool: the benchmark's in-process helper.  perfbench/run.py drives it;
// it links the PROTEST library and calls the library's public functions
// directly, timing them from the outside.
//
//   pbtool gen-stress GATES SEED
//       Prints the seeded stress netlist (stress_circuit_params) as .bench.
//   pbtool fault-grade --seconds S --seed N [--trace] FILE...
//       The fault-grade workload: per netlist, parse, naive-engine session
//       analyze (observability, detection probs, test lengths, fault
//       bounds), compact JSON, pruned fault simulation at kGradePatterns.
//       With --trace one round runs instead of the timed loop, each netlist
//       graded untraced and then under spans.
//   pbtool replay --stream F --setup K --threads T
//                 [--daemon "PROTEST serve ..."]... --final F
//       Replays an NDJSON request stream (K set-up lines, then the
//       requests), each request through every leg in turn: an in-process
//       ProtestService timed around handle_line, a second one driven through
//       the dispatch path's public calls under spans, and each --daemon
//       child over pipes.  --final lines go to the daemons afterwards,
//       untimed; their responses and the handle leg's optimize responses
//       are returned.
//   pbtool probe --engine E --seed N [--faults] [--mc NET,P,T] NET...
//       Times each layer's public function on the given netlists (files or
//       zoo:NAME): parse, finalize, engine evaluation paths, observability,
//       detection probabilities, the test-length grid, fault analysis.
//
// Every subcommand prints one JSON object on stdout.  Spans and timings are
// recorded in memory and written when the subcommand ends.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <iostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "lint/fault_analyze.hpp"
#include "netlist/bench_io.hpp"
#include "observe/detect.hpp"
#include "observe/observability.hpp"
#include "prob/engine.hpp"
#include "protest/service.hpp"
#include "protest/session.hpp"
#include "sim/fault.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"
#include "testlen/test_length.hpp"

namespace {

using namespace protest;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kGradePatterns = 1024;    ///< fault-grade simulation
constexpr std::size_t kRefPatterns = 1u << 22;  ///< Monte-Carlo reference
constexpr int kRefTuples = 2;                   ///< accuracy tuples per netlist
constexpr int kSetupRepeats = 3;                ///< set-up parses per round
constexpr int kProbeRepeats = 3;                ///< probe: median of this many
constexpr std::size_t kServeCap = 16;           ///< as run.py's SERVE_CAP
/// fault-grade's session and reference threads: with the main thread, the
/// machine's 4.  The grading path is serial today; a layer that learns to
/// use the session's executor shows here without a benchmark change.
constexpr unsigned kGradeThreads = 3;

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double time_s(F&& f) {
  const double t = now_s();
  f();
  return now_s() - t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- minimal JSON emitter for the tool's own output --------------------------
// Deliberately not the library's JsonWriter: the serializer is one of the
// layers under measurement, and the harness's figures must not depend on it.

class Out {
 public:
  Out& key(const std::string& k) {
    sep();
    s_ += '"' + k + "\":";
    fresh_ = true;
    return *this;
  }
  Out& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    s_ += buf;
    return *this;
  }
  Out& str(const std::string& v) {
    sep();
    s_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) s_ += c;
    }
    s_ += '"';
    return *this;
  }
  Out& open(char c) {
    sep();
    s_ += c;
    fresh_ = true;
    return *this;
  }
  Out& close(char c) {
    s_ += c;
    fresh_ = false;
    return *this;
  }
  Out& nums(const std::vector<double>& v) {
    open('[');
    for (const double x : v) num(x);
    return close(']');
  }
  const std::string& text() const { return s_; }

 private:
  void sep() {
    if (!fresh_ && !s_.empty()) s_ += ',';
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

// --- spans ---------------------------------------------------------------------

/// One timed call into a layer.  Spans of one request share `req`; `parent`
/// indexes the enclosing span (-1 for a request's root).
struct Span {
  const char* layer;
  std::uint64_t req;
  int parent;
  double t0;
  double t1;
};

class Tracer {
 public:
  std::vector<Span> spans;
  int current = -1;

  void write(Out& o) const {
    o.key("spans").open('[');
    for (const Span& s : spans) {
      o.open('[').str(s.layer).num(static_cast<double>(s.req))
          .num(s.parent).num(s.t0).num(s.t1).close(']');
    }
    o.close(']');
  }
};

/// Records a span for its lifetime; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, const char* layer, std::uint64_t req) : t_(t) {
    if (!t_) return;
    idx_ = static_cast<int>(t_->spans.size());
    saved_ = t_->current;
    t_->spans.push_back({layer, req, saved_, now_s(), 0.0});
    t_->current = idx_;
  }
  ~Scope() {
    if (!t_) return;
    t_->spans[static_cast<std::size_t>(idx_)].t1 = now_s();
    t_->current = saved_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int idx_ = 0;
  int saved_ = 0;
};

// --- inputs -------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The .bench text of a netlist argument: "zoo:NAME" or a .bench file.
std::string bench_text(const std::string& arg) {
  if (arg.rfind("zoo:", 0) == 0)
    return write_bench_string(make_circuit(arg.substr(4)));
  return slurp(arg);
}

InputProbs seeded_tuple(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(0.05, 0.95);
  InputProbs t(n);
  for (double& p : t) p = std::round(u(rng) * 1e4) / 1e4;
  return t;
}

/// The netlist rebuilt node by node through the public builder calls, not
/// yet finalized (the compile probe times finalize on it).
Netlist rebuild(const Netlist& src) {
  Netlist n;
  n.reserve(src.size());
  for (NodeId id = 0; id < src.size(); ++id) {
    const Gate& g = src.gate(id);
    if (g.type == GateType::Input)
      n.add_input(g.name);
    else
      n.add_gate(g.type, g.fanin, g.name);
  }
  for (const NodeId o : src.outputs()) n.mark_output(o);
  return n;
}

std::unique_ptr<SignalProbEngine> make_probe_engine(const std::string& name,
                                                    const Netlist& net) {
  if (name == "protest") return std::make_unique<ProtestEngine>(net);
  if (name == "naive") return std::make_unique<NaiveEngine>(net);
  throw std::invalid_argument("probe engine must be protest or naive");
}

AnalysisRequest artifacts(bool obs, bool det, bool testlen, bool bounds) {
  AnalysisRequest r;
  r.observability = obs;
  r.detection_probs = det;
  r.test_lengths = testlen;
  r.fault_bounds = bounds;
  return r;
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  bool has(const std::string& k) const {
    for (const auto& f : flags)
      if (f.first == k) return true;
    return false;
  }
  std::string get(const std::string& k, const std::string& def = "") const {
    for (const auto& f : flags)
      if (f.first == k) return f.second;
    return def;
  }
  double num(const std::string& k, double def) const {
    const std::string v = get(k);
    return v.empty() ? def : std::stod(v);
  }
};

Args parse_args(int argc, char** argv, int first,
                const std::vector<std::string>& switches) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--", 0) == 0) {
      if (std::find(switches.begin(), switches.end(), s) != switches.end()) {
        a.flags.emplace_back(s, "1");
      } else {
        if (i + 1 >= argc) throw std::invalid_argument("missing value: " + s);
        a.flags.emplace_back(s, argv[++i]);
      }
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

// --- gen-stress -------------------------------------------------------------

int cmd_gen_stress(const Args& a) {
  if (a.positional.size() != 2)
    throw std::invalid_argument("usage: pbtool gen-stress GATES SEED");
  const Netlist net = make_random_circuit(stress_circuit_params(
      std::stoull(a.positional[0]), std::stoull(a.positional[1])));
  std::cout << write_bench_string(net);
  return 0;
}

// --- fault-grade ------------------------------------------------------------

/// Checks one graded netlist; returns an empty string when every check
/// holds.  Runs outside the timed region.  The proven-undetectable faults,
/// which the pruned simulation skips, are simulated here unpruned on the
/// same patterns: a detection among them disproves the static proof.
std::string check_grade(const Netlist& net, const std::vector<Fault>& faults,
                        const FaultAnalysis& fa, const FaultSimResult& fs,
                        const PatternSet& ps, const std::string& json) {
  if (fa.bounds.size() != faults.size())
    return "fault_bounds size differs from the session fault list";
  if (fs.detect_count.size() != faults.size())
    return "fault simulation count differs from the session fault list";
  std::vector<Fault> proven;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const bool pu = fa.bounds[f].verdict == FaultClass::ProvenUndetectable;
    if (pu != (fa.bounds[f].hi == 0.0))
      return "a fault's verdict disagrees with its interval's upper bound";
    if (pu) proven.push_back(faults[f]);
  }
  if (proven.size() != fa.undetectable ||
      fa.unexcitable + fa.unobservable != fa.undetectable ||
      fa.undetectable + fa.detectable + fa.uncertain != faults.size())
    return "fault census disagrees with the per-fault verdicts";
  const FaultSimResult unpruned =
      simulate_faults(net, proven, ps, FaultSimMode::CountDetections);
  for (const std::uint64_t c : unpruned.detect_count)
    if (c != 0) return "a proven-undetectable fault was detected";
  const JsonValue doc = parse_json(json);
  if (static_cast<std::size_t>(doc.at("circuit").at("faults").as_number()) !=
      faults.size())
    return "payload fault count differs from the session fault list";
  const auto& dp = doc.at("detection_probs").as_array();
  if (dp.size() != faults.size())
    return "payload detection_probs length differs from the fault list";
  for (const JsonValue& d : dp) {
    const double p = d.at("p_detect").as_number();
    if (!(p >= 0.0 && p <= 1.0)) return "p_detect outside [0,1]";
  }
  return "";
}

int cmd_fault_grade(const Args& a) {
  const double seconds = a.num("--seconds", 10);
  const std::uint64_t seed = static_cast<std::uint64_t>(a.num("--seed", 1));
  const bool trace = a.has("--trace");
  std::vector<std::string> texts;
  for (const std::string& p : a.positional) texts.push_back(slurp(p));
  if (texts.empty()) throw std::invalid_argument("no netlists");

  // Set-up: parsing (which finalizes) every netlist.  It is repeated
  // before every round, outside the timed grading, so that its median
  // draws on the whole run rather than on one moment of it.
  std::vector<double> setups;
  std::vector<std::size_t> gates;
  auto set_up = [&] {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      double total = 0.0;
      gates.clear();
      for (const std::string& t : texts) {
        Netlist net;
        total += time_s([&] { net = read_bench_string(t); });
        gates.push_back(net.num_gates());
      }
      setups.push_back(total);
    }
  };

  std::mt19937_64 rng(seed);
  Tracer tracer;
  std::size_t attempted = 0, failed = 0, graded = 0, simulated = 0,
              undetectable = 0, bytes = 0;
  double timed = 0.0, settled_sum = 0.0;
  std::vector<double> op_s, untraced_s;
  std::vector<std::string> errors;

  // Grades netlist i once; returns its seconds (checks excluded).
  auto grade = [&](std::size_t i, const InputProbs& tuple, std::uint64_t pseed,
                   Tracer* tr) {
    ++attempted;
    const std::uint64_t req = attempted;
    std::string err;
    double spent = 0.0;
    const double t0 = now_s();
    try {
      std::optional<Scope> root;
      root.emplace(tr, "request", req);
      Netlist net;
      {
        Scope s(tr, "netlist", req);
        net = read_bench_string(texts[i]);
      }
      SessionOptions so;
      so.engine = "naive";
      so.parallel.num_threads = kGradeThreads;
      std::optional<AnalysisSession> session;
      {
        Scope s(tr, "protest.session", req);
        session.emplace(net, so);
      }
      AnalysisResult res;
      if (tr) {
        // Traced: the same session work split at artifact boundaries —
        // each later call is a cache hit that materializes one more
        // artifact, so its span is that artifact's layer.
        {
          Scope s(tr, "prob", req);
          session->analyze(tuple, artifacts(false, false, false, false));
        }
        {
          Scope s(tr, "observe", req);
          session->analyze(tuple, artifacts(true, true, false, false));
        }
        Scope s(tr, "lint", req);
        res = session->analyze(tuple, artifacts(true, true, true, true));
      } else {
        res = session->analyze(tuple, artifacts(true, true, true, true));
      }
      std::string json;
      {
        Scope s(tr, "analysis.encode", req);
        json = res.to_json(0);
      }
      FaultSimResult fs;
      std::optional<PatternSet> ps;
      {
        Scope s(tr, "sim", req);
        ps.emplace(PatternSet::weighted(tuple, kGradePatterns, pseed));
        fs = simulate_faults_pruned(net, session->faults(), *ps,
                                    FaultSimMode::CountDetections,
                                    res.fault_bounds());
      }
      root.reset();
      spent = now_s() - t0;
      err = check_grade(net, session->faults(), res.fault_bounds(), fs, *ps, json);
      // Counted once per netlist: the traced pass when tracing.
      if (err.empty() && (tr != nullptr) == trace) {
        graded += session->faults().size();
        const FaultAnalysis& fa = res.fault_bounds();
        undetectable += fa.undetectable;
        simulated += fa.bounds.size() - fa.undetectable;
        settled_sum += fa.settled_fraction();
        bytes += json.size();
      }
    } catch (const std::exception& e) {
      spent = now_s() - t0;
      err = e.what();
    }
    if (!err.empty()) {
      ++failed;
      if (errors.size() < 5) errors.push_back(err);
    }
    return spent;
  };

  // Whole rounds only, so every netlist is graded equally often.  Traced:
  // one round, each netlist graded untraced and then traced on the same
  // tuple and patterns, so the pair's difference is the tracing overhead.
  std::size_t ops = 0;
  for (std::size_t round = 0; trace ? round < 1 : (round == 0 || timed < seconds);
       ++round) {
    set_up();
    for (std::size_t i = 0; i < texts.size(); ++i, ++ops) {
      const InputProbs tuple =
          seeded_tuple(rng, read_bench_string(texts[i]).inputs().size());
      const std::uint64_t pseed = seed * 1000003u + ops;
      if (trace) untraced_s.push_back(grade(i, tuple, pseed, nullptr));
      op_s.push_back(grade(i, tuple, pseed, trace ? &tracer : nullptr));
      timed += op_s.back();
    }
  }

  // Accuracy of the session's engine, outside timing: its estimate against
  // the Monte-Carlo engine at kRefPatterns on kRefTuples fixed seeded
  // tuples per netlist.
  double err_sum = 0.0, noise_sum = 0.0, err_nodes = 0.0;
  if (!trace) {
    std::mt19937_64 arng(0x5eedULL);  // the same tuples in every run
    for (const std::string& t : texts) {
      const Netlist net = read_bench_string(t);
      for (int k = 0; k < kRefTuples; ++k) {
        const InputProbs tuple = seeded_tuple(arng, net.inputs().size());
        const std::vector<double> est = NaiveEngine(net).signal_probs(tuple);
        MonteCarloEngineParams mp;
        mp.num_patterns = kRefPatterns;
        mp.parallel.num_threads = kGradeThreads;
        const std::vector<double> ref =
            MonteCarloEngine(net, mp).signal_probs(tuple);
        for (NodeId n = 0; n < net.size(); ++n) {
          if (net.is_input(n)) continue;
          err_sum += std::abs(est[n] - ref[n]);
          // Expected |error| of the reference itself (half-normal mean).
          noise_sum += std::sqrt(ref[n] * (1.0 - ref[n]) /
                                 static_cast<double>(kRefPatterns) * 2.0 / M_PI);
          err_nodes += 1.0;
        }
      }
    }
  }

  Out o;
  o.open('{');
  o.key("setup_s").num(median(setups));
  o.key("setup_runs_s").nums(setups);
  o.key("patterns").num(static_cast<double>(kGradePatterns));
  o.key("ref_patterns").num(static_cast<double>(kRefPatterns));
  o.key("threads").num(kGradeThreads);
  if (err_nodes > 0) {
    o.key("sp_mean_abs_err").num(err_sum / err_nodes);
    o.key("sp_noise_floor").num(noise_sum / err_nodes);
    o.key("sp_nodes").num(err_nodes);
  }
  o.key("attempted").num(static_cast<double>(attempted));
  o.key("failed").num(static_cast<double>(failed));
  o.key("timed_s").num(timed);
  o.key("op_s").nums(op_s);
  if (trace) o.key("untraced_s").nums(untraced_s);
  o.key("faults_graded").num(static_cast<double>(graded));
  o.key("faults_per_s").num(timed > 0 ? static_cast<double>(graded) / timed : 0);
  o.key("faults_simulated").num(static_cast<double>(simulated));
  o.key("proven_undetectable").num(static_cast<double>(undetectable));
  o.key("settled_fraction_mean")
      .num(op_s.empty() ? 0 : settled_sum / static_cast<double>(op_s.size()));
  o.key("response_bytes").num(static_cast<double>(bytes));
  o.key("gates").open('[');
  for (const std::size_t g : gates) o.num(static_cast<double>(g));
  o.close(']');
  o.key("errors").open('[');
  for (const std::string& e : errors) o.str(e);
  o.close(']');
  o.key("peak_rss_mb").num(peak_rss_mb());
  if (trace) tracer.write(o);
  o.close('}');
  std::cout << o.text() << "\n";
  return 0;
}

// --- replay -------------------------------------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string l; std::getline(in, l);)
    if (!l.empty()) lines.push_back(l);
  return lines;
}

/// The request's tuple, as dispatch derives it.
InputProbs tuple_of(const ServiceRequest& req, const Netlist& net) {
  if (!req.input_probs.empty()) return req.input_probs;
  return uniform_input_probs(net, req.p.value_or(0.5));
}

/// One request through the public calls dispatch makes, each under a span.
/// analyze is split at the artifact boundary: an artifact-free analyze
/// (the engine evaluation, layer `prob`) and then the request's own
/// analyze, a cache hit that materializes the artifacts (layer `observe`).
/// Verbs whose payload writers are internal to dispatch (lint,
/// fault_bounds, optimize, stats) run as one ProtestService::handle span.
std::string traced_request(ProtestService& svc, Tracer* tr, std::uint64_t n,
                           const std::string& line) {
  Scope root(tr, "request", n);
  ServiceRequest req;
  {
    Scope s(tr, "analysis.decode", n);
    req = ServiceRequest::from_json(line);
  }
  std::string payload;
  if (req.verb == ServiceVerb::Analyze || req.verb == ServiceVerb::Perturb) {
    std::shared_ptr<AnalysisSession> session;
    {
      Scope s(tr, "protest.session", n);
      session = svc.registry().open(req.netlist);
    }
    const AnalysisRequest want = req.artifacts.value_or(AnalysisRequest{});
    const InputProbs tuple = tuple_of(req, session->netlist());
    AnalysisResult res;
    if (req.verb == ServiceVerb::Analyze) {
      {
        Scope s(tr, "prob", n);
        session->analyze(tuple, artifacts(false, false, false, false));
      }
      Scope s(tr, "observe", n);
      res = session->analyze(tuple, want);
    } else {
      AnalysisResult base;
      {
        Scope s(tr, "protest.session", n);
        base = session->analyze(tuple, want);
      }
      Scope s(tr, "prob", n);
      res = req.screen ? session->perturb_screen(base, req.input_index, req.new_p)
                       : session->perturb(base, req.input_index, req.new_p);
    }
    Scope s(tr, "analysis.encode", n);
    payload = ServiceResponse::success(req, res.to_json(0)).to_json(0);
  } else {
    ServiceResponse resp;
    {
      Scope s(tr, "protest.service", n);
      resp = svc.handle(req);
    }
    Scope s(tr, "analysis.encode", n);
    payload = resp.to_json(0);
  }
  return payload;
}

/// A `protest serve` child over pipes (stderr discarded).
class Daemon {
 public:
  explicit Daemon(const std::string& command) {
    std::vector<std::string> words;
    std::istringstream ss(command);
    for (std::string w; ss >> w;) words.push_back(w);
    if (words.empty()) throw std::invalid_argument("empty --daemon command");
    int to[2], from[2];
    if (pipe(to) != 0 || pipe(from) != 0) throw std::runtime_error("pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      dup2(to[0], 0);
      dup2(from[1], 1);
      const int null = open("/dev/null", O_WRONLY);
      if (null >= 0) dup2(null, 2);
      close(to[0]);
      close(to[1]);
      close(from[0]);
      close(from[1]);
      std::vector<char*> argv;
      for (std::string& w : words) argv.push_back(w.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(to[0]);
    close(from[1]);
    in_ = fdopen(to[1], "w");
    out_ = fdopen(from[0], "r");
  }
  ~Daemon() {
    std::fputs("{\"verb\":\"shutdown\",\"id\":0}\n", in_);
    std::fclose(in_);
    std::fclose(out_);
    std::free(buf_);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::string call(const std::string& line) {
    std::fputs(line.c_str(), in_);
    std::fputc('\n', in_);
    std::fflush(in_);
    const ssize_t n = getline(&buf_, &cap_, out_);
    if (n <= 0) throw std::runtime_error("daemon closed its output");
    return std::string(buf_, static_cast<std::size_t>(n - 1));
  }

 private:
  pid_t pid_ = -1;
  FILE* in_ = nullptr;
  FILE* out_ = nullptr;
  char* buf_ = nullptr;
  std::size_t cap_ = 0;
};

/// One way of serving the stream, with what it measured.
struct Leg {
  std::string name;
  std::optional<ProtestService> service;  ///< handle / traced legs
  std::unique_ptr<Daemon> daemon;         ///< daemon legs
  std::vector<double> latency_ms, hashes, sizes;
  std::vector<std::string> final_responses;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  std::string serve(const std::string& line, Tracer* tr, std::uint64_t n) {
    if (daemon) return daemon->call(line);
    if (name == "traced") {
      try {
        return traced_request(*service, tr, n, line);
      } catch (const std::exception& e) {
        return ServiceResponse::failure(0, "", "internal", e.what()).to_json(0);
      }
    }
    return service->handle_line(line);
  }

  void check(const std::string& resp, std::uint64_t want_id) {
    std::string err;
    try {
      const ServiceResponse r = ServiceResponse::from_json(resp);
      if (!r.ok)
        err = r.error_code + ": " + r.error_message;
      else if (r.id != want_id)
        err = "response id differs from the request id";
    } catch (const std::exception& e) {
      err = std::string("unparseable response: ") + e.what();
    }
    if (!err.empty()) {
      ++failed;
      if (errors.size() < 5) errors.push_back(name + ": " + err);
    }
  }
};

/// Replays set-up lines untimed, then each request through every leg in
/// turn (the leg that goes first rotates), so per-request differences
/// between legs are measured moments apart.
int cmd_replay(const Args& a) {
  const std::vector<std::string> lines = read_lines(a.get("--stream"));
  const std::size_t setup = static_cast<std::size_t>(a.num("--setup", 0));
  ServiceConfig cfg;
  cfg.max_resident_sessions = kServeCap;
  cfg.parallel.num_threads = static_cast<unsigned>(a.num("--threads", 0));
  cfg.session_defaults.parallel.num_threads = cfg.parallel.num_threads;

  std::vector<std::unique_ptr<Leg>> legs;
  for (const char* name : {"handle", "traced"}) {
    legs.push_back(std::make_unique<Leg>());
    legs.back()->name = name;
    legs.back()->service.emplace(cfg);
  }
  for (const auto& [flag, command] : a.flags) {
    if (flag != "--daemon") continue;
    legs.push_back(std::make_unique<Leg>());
    legs.back()->name = "daemon" + std::to_string(legs.size() - 3);
    legs.back()->daemon = std::make_unique<Daemon>(command);
  }
  const std::vector<std::string> final_lines = read_lines(a.get("--final"));

  auto id_of = [](const std::string& line) {
    return static_cast<std::uint64_t>(parse_json(line).at("id").as_number());
  };
  for (std::size_t i = 0; i < std::min(setup, lines.size()); ++i)
    for (auto& leg : legs) leg->check(leg->serve(lines[i], nullptr, 0), id_of(lines[i]));

  // The handle leg's optimize responses, returned whole.
  std::vector<std::string> kept;
  Tracer tracer;
  std::size_t done = 0;
  for (std::size_t i = setup; i < lines.size(); ++i, ++done) {
    for (std::size_t k = 0; k < legs.size(); ++k) {
      Leg& leg = *legs[(done + k) % legs.size()];
      const double t0 = now_s();
      const std::string resp = leg.serve(lines[i], &tracer, done);
      leg.latency_ms.push_back((now_s() - t0) * 1e3);
      leg.check(resp, id_of(lines[i]));
      // Low 52 bits of the hash stay exact as a JSON double.
      leg.hashes.push_back(static_cast<double>(
          std::hash<std::string>{}(resp) & ((std::uint64_t{1} << 52) - 1)));
      leg.sizes.push_back(static_cast<double>(resp.size()));
      if (leg.name == "handle" &&
          parse_json(lines[i]).at("verb").as_string() == "optimize")
        kept.push_back(resp);
    }
  }
  for (auto& leg : legs)
    if (leg->daemon)
      for (const std::string& l : final_lines)
        leg->final_responses.push_back(leg->daemon->call(l));

  Out o;
  o.open('{');
  o.key("legs").open('[');
  for (auto& leg : legs) {
    o.open('{');
    o.key("name").str(leg->name);
    o.key("failed").num(static_cast<double>(leg->failed));
    o.key("errors").open('[');
    for (const std::string& e : leg->errors) o.str(e);
    o.close(']');
    o.key("latency_ms").nums(leg->latency_ms);
    o.key("hash").nums(leg->hashes);
    o.key("bytes").nums(leg->sizes);
    o.key("final").open('[');
    for (const std::string& r : leg->final_responses) o.str(r);
    o.close(']');
    o.close('}');
  }
  o.close(']');
  o.key("kept").open('[');
  for (const std::string& r : kept) o.str(r);
  o.close(']');
  o.key("executor_workers")
      .num(static_cast<double>(legs[0]->service->registry().executor()->num_workers()));
  tracer.write(o);
  o.close('}');
  legs.clear();  // shuts the daemons down before the output goes out
  std::cout << o.text() << "\n";
  return 0;
}

// --- probe --------------------------------------------------------------------

int cmd_probe(const Args& a) {
  const std::string engine = a.get("--engine", "protest");
  const bool faults_probe = a.has("--faults");
  std::mt19937_64 rng(static_cast<std::uint64_t>(a.num("--seed", 1)));

  double parse_s = 0, compile_s = 0, nodes = 0, first_s = 0, full_s = 0,
         frozen_s = 0, perturb_s = 0, obs_s = 0, det_s = 0, grid_s = 0,
         fa_s = 0, settled = 0, undetectable = 0, gates_conditioned = 0,
         joining = 0, max_w = 0, fa_faults = 0;
  for (const std::string& arg : a.positional) {
    const std::string text = bench_text(arg);
    std::vector<double> t;
    Netlist net;
    for (int r = 0; r < kProbeRepeats; ++r)
      t.push_back(time_s([&] { net = read_bench_string(text); }));
    parse_s += median(t);
    t.clear();
    for (int r = 0; r < kProbeRepeats; ++r) {
      Netlist copy = rebuild(net);
      t.push_back(time_s([&] { copy.finalize(); }));
    }
    compile_s += median(t);
    nodes += static_cast<double>(net.size());

    const std::size_t ni = net.inputs().size();
    std::unique_ptr<SignalProbEngine> eng = make_probe_engine(engine, net);
    InputProbs base = seeded_tuple(rng, ni);
    std::vector<double> sp;
    first_s += time_s([&] { sp = eng->signal_probs(base); });
    if (const auto* pe = dynamic_cast<const ProtestEngine*>(eng.get())) {
      gates_conditioned += static_cast<double>(pe->stats().gates_conditioned);
      joining += static_cast<double>(pe->stats().total_joining_points);
      max_w = std::max(max_w, static_cast<double>(pe->stats().max_w));
    }
    t.clear();
    for (int r = 0; r < kProbeRepeats; ++r) {
      const InputProbs tup = seeded_tuple(rng, ni);
      t.push_back(time_s([&] { eng->signal_probs(tup); }));
    }
    const double full = median(t);
    full_s += full;
    // Batch of B fresh tuples: element 0 selects, the rest reuse the
    // selection, so (batch - full) / (B - 1) is the eval-only cost.
    constexpr std::size_t kBatch = 4;
    std::vector<InputProbs> batch;
    for (std::size_t b = 0; b < kBatch; ++b) batch.push_back(seeded_tuple(rng, ni));
    const double bt = time_s([&] { eng->signal_probs_batch(batch); });
    frozen_s += std::max(0.0, (bt - full) / static_cast<double>(kBatch - 1));
    t.clear();
    for (int r = 0; r < kProbeRepeats; ++r) {
      const std::size_t idx = static_cast<std::size_t>(rng() % ni);
      const double np = seeded_tuple(rng, 1)[0];
      t.push_back(time_s([&] { eng->signal_probs_perturb(base, sp, idx, np); }));
    }
    perturb_s += median(t);

    const std::vector<Fault> faults = structural_fault_list(net);
    Observability obs;
    std::vector<double> det;
    t.clear();
    for (int r = 0; r < kProbeRepeats; ++r)
      t.push_back(time_s([&] { obs = compute_observability(net, sp); }));
    obs_s += median(t);
    t.clear();
    for (int r = 0; r < kProbeRepeats; ++r)
      t.push_back(time_s([&] { det = detection_probs(net, faults, sp, obs); }));
    det_s += median(t);
    const AnalysisRequest grid;
    t.clear();
    for (int r = 0; r < kProbeRepeats; ++r) {
      t.push_back(time_s([&] {
        for (const double d : grid.d_grid)
          for (const double e : grid.e_grid) required_test_length(det, d, e);
      }));
    }
    grid_s += median(t);

    if (faults_probe) {
      FaultAnalyzeOptions fo;
      fo.input_probs = base;
      FaultAnalysis fa;
      fa_s += time_s([&] { fa = analyze_faults(net, faults, fo); });
      settled += fa.settled_fraction() * static_cast<double>(faults.size());
      undetectable += static_cast<double>(fa.undetectable);
      fa_faults += static_cast<double>(faults.size());
    }
  }

  Out o;
  o.open('{');
  o.key("netlist.parse_s").num(parse_s);
  o.key("netlist.compile_s").num(compile_s);
  o.key("netlist.nodes").num(nodes);
  o.key("prob.first_eval_s").num(first_s);
  o.key("prob.full_eval_s").num(full_s);
  o.key("prob.frozen_eval_s").num(frozen_s);
  o.key("prob.select_s").num(std::max(0.0, full_s - frozen_s));
  o.key("prob.perturb_s").num(perturb_s);
  o.key("prob.gates_conditioned").num(gates_conditioned);
  o.key("prob.joining_points").num(joining);
  o.key("prob.max_w").num(max_w);
  o.key("observe.observability_s").num(obs_s);
  o.key("observe.detection_s").num(det_s);
  o.key("testlen.grid_s").num(grid_s);
  if (faults_probe) {
    o.key("lint.fault_analyze_s").num(fa_s);
    o.key("lint.settled_fraction").num(fa_faults > 0 ? settled / fa_faults : 0);
    o.key("lint.proven_undetectable").num(undetectable);
  }
  if (a.has("--mc")) {
    // "--mc NET,PATTERNS,THREADS": one Monte-Carlo engine evaluation.
    std::string spec = a.get("--mc");
    std::replace(spec.begin(), spec.end(), ',', ' ');
    std::istringstream ss(spec);
    std::string net_arg;
    std::size_t patterns = 0;
    unsigned threads = 1;
    ss >> net_arg >> patterns >> threads;
    const Netlist net = read_bench_string(bench_text(net_arg));
    MonteCarloEngineParams mp;
    mp.num_patterns = patterns;
    mp.parallel.num_threads = threads;
    const MonteCarloEngine mc(net, mp);
    std::vector<double> t;
    for (int r = 0; r < kProbeRepeats; ++r) {
      const InputProbs tup = seeded_tuple(rng, net.inputs().size());
      t.push_back(time_s([&] { mc.signal_probs(tup); }));
    }
    o.key("prob.mc_eval_s").num(median(t));
    o.key("executor.workers").num(static_cast<double>(mp.parallel.resolved()));
  }
  o.close('}');
  std::cout << o.text() << "\n";
  return 0;
}

int cmd_info() {
  Out o;
  o.open('{');
  o.key("compiler").str(PERFBENCH_CXX_COMPILER);
  o.key("build_type").str(PERFBENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
  o.key("optimized").num(1);
#else
  o.key("optimized").num(0);
#endif
  o.close('}');
  std::cout << o.text() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pbtool gen-stress|fault-grade|replay|probe ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "info") return cmd_info();
    if (cmd == "gen-stress") return cmd_gen_stress(parse_args(argc, argv, 2, {}));
    if (cmd == "fault-grade")
      return cmd_fault_grade(parse_args(argc, argv, 2, {"--trace"}));
    if (cmd == "replay") return cmd_replay(parse_args(argc, argv, 2, {}));
    if (cmd == "probe") return cmd_probe(parse_args(argc, argv, 2, {"--faults"}));
  } catch (const std::exception& e) {
    std::cerr << "pbtool " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "pbtool: unknown subcommand " << cmd << "\n";
  return 2;
}
