#include "protest/service.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>
#include <thread>

#include "analysis/json.hpp"
#include "circuits/zoo.hpp"
#include "lint/lint.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/dsl.hpp"
#include "optimize/hill_climb.hpp"
#include "optimize/objective.hpp"

namespace protest {

// --- the registry -----------------------------------------------------------

/// The expensive resident state: for owned registrations the netlist copy
/// the session was built on (sessions hold references, so the copy must
/// live exactly as long as the session), plus the session itself.
/// Held by shared_ptr and co-owned by every handed-out session pointer,
/// so eviction can never pull state out from under an in-flight query.
struct SessionRegistry::Resident {
  Resident(std::unique_ptr<Netlist> own, const Netlist* ext, SessionOptions o)
      : owned(std::move(own)), session(owned ? *owned : *ext, std::move(o)) {}

  std::unique_ptr<Netlist> owned;  ///< null for external registrations
  AnalysisSession session;
};

std::shared_ptr<AnalysisSession> SessionRegistry::lease(
    const std::shared_ptr<Resident>& r) {
  return std::shared_ptr<AnalysisSession>(r, &r->session);
}

SessionRegistry::SessionRegistry(std::size_t max_resident,
                                 ParallelConfig parallel)
    : max_resident_(max_resident), exec_(make_executor(parallel)) {}

void SessionRegistry::register_netlist(std::string name, Netlist net,
                                       SessionOptions opts) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[std::move(name)];
  e = Entry{};  // replacing a registration drops its resident session
  e.prototype = std::move(net);
  e.opts = std::move(opts);
}

void SessionRegistry::register_external(std::string name, const Netlist& net,
                                        SessionOptions opts) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[std::move(name)];
  e = Entry{};
  e.external = &net;
  e.opts = std::move(opts);
}

std::shared_ptr<AnalysisSession> SessionRegistry::open(
    const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw ServiceError("unknown_netlist",
                       "no netlist registered under '" + name + "'");
  Entry& e = it->second;
  e.last_use = ++use_counter_;
  if (!e.resident) {
    // Revival builds the engine and fault list under the registry lock —
    // concurrent opens of OTHER names briefly queue behind it; the
    // expensive per-netlist plans build lazily inside the session later.
    SessionOptions opts = e.opts;
    opts.parallel.executor = exec_;
    std::unique_ptr<Netlist> own =
        e.prototype ? std::make_unique<Netlist>(*e.prototype) : nullptr;
    e.resident = std::make_shared<Resident>(std::move(own), e.external,
                                            std::move(opts));
    enforce_cap_locked(&e);
  }
  return lease(e.resident);
}

std::shared_ptr<AnalysisSession> SessionRegistry::find_resident(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || !it->second.resident) return nullptr;
  return lease(it->second.resident);
}

void SessionRegistry::enforce_cap_locked(const Entry* keep) {
  if (max_resident_ == 0) return;
  for (;;) {
    std::size_t resident = 0;
    Entry* lru = nullptr;
    for (auto& [name, e] : entries_) {
      if (!e.resident) continue;
      ++resident;
      if (&e != keep && (!lru || e.last_use < lru->last_use)) lru = &e;
    }
    if (resident <= max_resident_ || !lru) return;
    lru->resident.reset();  // in-flight leases keep their state alive
  }
}

bool SessionRegistry::evict(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || !it->second.resident) return false;
  it->second.resident.reset();
  return true;
}

bool SessionRegistry::unregister(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.erase(name) > 0;
}

std::vector<std::string> SessionRegistry::registered_names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, e] : entries_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

std::vector<std::string> SessionRegistry::resident_names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::uint64_t, std::string>> by_use;
  for (const auto& [name, e] : entries_)
    if (e.resident) by_use.emplace_back(e.last_use, name);
  std::sort(by_use.begin(), by_use.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> names;
  names.reserve(by_use.size());
  for (auto& [use, name] : by_use) names.push_back(std::move(name));
  return names;
}

std::size_t SessionRegistry::num_resident() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [name, e] : entries_)
    if (e.resident) ++n;
  return n;
}

// --- the protocol -----------------------------------------------------------

namespace {

std::vector<double> to_number_list(const JsonValue& v) {
  std::vector<double> out;
  out.reserve(v.as_array().size());
  for (const JsonValue& e : v.as_array()) out.push_back(e.as_number());
  return out;
}

/// to_uint() for an `unsigned` field: values that do not fit are
/// rejected, never truncated.
unsigned to_unsigned(const JsonValue& v) {
  constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
  const std::uint64_t u = to_uint(v);
  if (u > kMax)
    throw std::runtime_error("value exceeds " + std::to_string(kMax));
  return static_cast<unsigned>(u);
}

/// A d_grid (every d in (0,1]) or e_grid (every e in (0,1)), checked at
/// decode time so a bad grid fails before any evaluation runs.
std::vector<double> to_grid(const JsonValue& v, bool one_allowed) {
  std::vector<double> grid = to_number_list(v);
  for (const double x : grid)
    if (!(x > 0.0 && (one_allowed ? x <= 1.0 : x < 1.0)))
      throw std::runtime_error(one_allowed ? "every d must be in (0,1]"
                                           : "every e must be in (0,1)");
  return grid;
}

AnalysisRequest artifacts_from_names(const JsonValue& list) {
  // Decodes through the artifact_name_table() shared with the CLI's
  // --artifacts parser, so the two surfaces can never drift apart.
  AnalysisRequest req;
  for (const ArtifactName& a : artifact_name_table()) req.*a.flag = false;
  for (const JsonValue& e : list.as_array()) {
    const std::string& name = e.as_string();
    if (!set_artifact(req, name))
      throw std::runtime_error("unknown artifact '" + name +
                               "' (available: " + known_artifact_names() +
                               ")");
  }
  return req;
}

void write_number_list(JsonWriter& w, std::string_view key,
                       std::span<const double> values) {
  w.key(key).begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
}

void write_string_list(JsonWriter& w, std::string_view key,
                       std::span<const std::string> values) {
  w.key(key).begin_array();
  for (const std::string& v : values) w.value(v);
  w.end_array();
}

/// The row named `name`, or null.
const VerbRow* find_verb(std::string_view name) {
  for (const VerbRow& row : verb_table())
    if (row.name == name) return &row;
  return nullptr;
}

}  // namespace

std::uint64_t to_uint(const JsonValue& v) {
  const double d = v.as_number();
  if (!(d >= 0.0) || d != std::floor(d) || d > 9007199254740992.0)
    throw std::runtime_error("expected a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

std::string_view to_string(ServiceVerb verb) { return verb_row(verb).name; }

ServiceVerb verb_from_string(std::string_view name) {
  if (const VerbRow* row = find_verb(name)) return row->verb;
  std::string known;
  for (const VerbRow& row : verb_table()) {
    known += known.empty() ? "" : " ";
    known += row.name;
  }
  throw ServiceError("unknown_verb", "unknown verb '" + std::string(name) +
                                         "' (available: " + known + ")");
}

std::string ServiceRequest::to_json(int indent) const {
  JsonWriter w(indent);
  w.begin_object();
  w.key("verb").value(to_string(verb));
  w.key("id").value(id);
  if (!netlist.empty()) w.key("netlist").value(netlist);
  if (!circuit.empty()) w.key("circuit").value(circuit);
  if (!source.empty()) w.key("source").value(source);
  if (!engine.empty()) w.key("engine").value(engine);
  if (seed) w.key("seed").value(*seed);
  if (patterns) w.key("patterns").value(*patterns);
  if (max_cached_results)
    w.key("max_cached_results").value(*max_cached_results);
  if (strict) w.key("strict").value(true);
  if (!passes.empty()) write_string_list(w, "passes", passes);
  if (faults) w.key("faults").value(true);
  if (p) w.key("p").value(*p);
  if (!input_probs.empty()) write_number_list(w, "input_probs", input_probs);
  if (artifacts) {
    std::vector<std::string> names;
    for (const ArtifactName& a : artifact_name_table())
      if ((*artifacts).*a.flag) names.emplace_back(a.name);
    write_string_list(w, "artifacts", names);
    write_number_list(w, "d_grid", artifacts->d_grid);
    write_number_list(w, "e_grid", artifacts->e_grid);
  }
  if (verb == ServiceVerb::Perturb) {
    w.key("input_index").value(input_index);
    w.key("new_p").value(new_p);
    if (screen) w.key("screen").value(true);
  }
  if (n_parameter) w.key("n").value(*n_parameter);
  if (sweeps) w.key("sweeps").value(*sweeps);
  if (subrequest) {
    // The wrapped verb rides along as a compact raw splice: its own
    // to_json is already canonical, so re-encoding stays a fixed point.
    w.key("request");
    w.raw(subrequest->to_json(0));
  }
  if (job) w.key("job").value(*job);
  if (timeout_ms) w.key("timeout_ms").value(*timeout_ms);
  if (deadline_ms) w.key("deadline_ms").value(*deadline_ms);
  w.end_object();
  return w.str();
}

ServiceRequest ServiceRequest::from_json_value(const JsonValue& doc) {
  if (!doc.is_object())
    throw ServiceError("bad_request", "request must be a JSON object");
  ServiceRequest r;
  bool saw_verb = false;
  std::optional<AnalysisRequest> artifact_flags;
  std::optional<std::vector<double>> d_grid, e_grid;
  for (const JsonValue::Member& m : doc.as_object()) {
    const std::string& key = m.first;
    const JsonValue& v = m.second;
    try {
      if (key == "verb") {
        r.verb = verb_from_string(v.as_string());
        saw_verb = true;
      } else if (key == "id") {
        r.id = to_uint(v);
      } else if (key == "netlist") {
        r.netlist = v.as_string();
      } else if (key == "circuit") {
        r.circuit = v.as_string();
      } else if (key == "source") {
        r.source = v.as_string();
      } else if (key == "engine") {
        r.engine = v.as_string();
      } else if (key == "seed") {
        r.seed = to_uint(v);
      } else if (key == "patterns") {
        r.patterns = static_cast<std::size_t>(to_uint(v));
      } else if (key == "max_cached_results") {
        r.max_cached_results = static_cast<std::size_t>(to_uint(v));
      } else if (key == "strict") {
        r.strict = v.as_bool();
      } else if (key == "passes") {
        for (const JsonValue& e : v.as_array())
          r.passes.push_back(e.as_string());
      } else if (key == "faults") {
        r.faults = v.as_bool();
      } else if (key == "p") {
        r.p = v.as_number();
      } else if (key == "input_probs") {
        r.input_probs = to_number_list(v);
      } else if (key == "artifacts") {
        artifact_flags = artifacts_from_names(v);
      } else if (key == "d_grid") {
        d_grid = to_grid(v, true);
      } else if (key == "e_grid") {
        e_grid = to_grid(v, false);
      } else if (key == "input_index") {
        r.input_index = static_cast<std::size_t>(to_uint(v));
      } else if (key == "new_p") {
        r.new_p = v.as_number();
      } else if (key == "screen") {
        r.screen = v.as_bool();
      } else if (key == "n") {
        r.n_parameter = to_uint(v);
      } else if (key == "sweeps") {
        r.sweeps = to_unsigned(v);
      } else if (key == "request") {
        r.subrequest = std::make_shared<ServiceRequest>(from_json_value(v));
      } else if (key == "job") {
        r.job = to_uint(v);
      } else if (key == "timeout_ms") {
        r.timeout_ms = to_uint(v);
      } else if (key == "deadline_ms") {
        // Same guarded conversion as request ids: negative, fractional,
        // or beyond-2^53 budgets are bad_request, never wrapped into a
        // surprise deadline.
        r.deadline_ms = to_uint(v);
      } else {
        throw std::runtime_error("unknown request member");
      }
    } catch (const ServiceError&) {
      throw;
    } catch (const std::exception& e) {
      throw ServiceError("bad_request",
                         "member '" + key + "': " + e.what());
    }
  }
  if (!saw_verb) throw ServiceError("bad_request", "missing 'verb'");
  // Grids imply an artifact request (with the default artifact set when
  // none was named explicitly).
  if (artifact_flags || d_grid || e_grid) {
    r.artifacts = artifact_flags.value_or(AnalysisRequest{});
    if (d_grid) r.artifacts->d_grid = std::move(*d_grid);
    if (e_grid) r.artifacts->e_grid = std::move(*e_grid);
  }
  return r;
}

ServiceRequest ServiceRequest::from_json(std::string_view text) {
  try {
    return from_json_value(parse_json(text));
  } catch (const ServiceError&) {
    throw;
  } catch (const std::exception& e) {
    throw ServiceError("bad_request", e.what());
  }
}

ServiceResponse ServiceResponse::success(const ServiceRequest& req,
                                         std::string result_json) {
  ServiceResponse resp;
  resp.id = req.id;
  resp.verb = std::string(to_string(req.verb));
  resp.ok = true;
  resp.result_json = std::move(result_json);
  return resp;
}

ServiceResponse ServiceResponse::failure(std::uint64_t id,
                                         std::string_view verb,
                                         const std::string& code,
                                         const std::string& message) {
  ServiceResponse resp;
  resp.id = id;
  resp.verb = std::string(verb);
  resp.ok = false;
  resp.error_code = code;
  resp.error_message = message;
  return resp;
}

std::string ServiceResponse::to_json(int indent) const {
  JsonWriter w(indent);
  w.begin_object();
  w.key("id").value(id);
  w.key("verb").value(verb);
  w.key("ok").value(ok);
  if (ok) {
    w.key("result");
    if (result_json.empty())
      w.null();
    else
      w.raw(result_json);
  } else {
    w.key("error").begin_object();
    w.key("code").value(error_code);
    w.key("message").value(error_message);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

ServiceResponse ServiceResponse::from_json_value(const JsonValue& doc) {
  if (!doc.is_object())
    throw ServiceError("bad_request", "response must be a JSON object");
  ServiceResponse resp;
  try {
    resp.id = to_uint(doc.at("id"));
    resp.verb = doc.at("verb").as_string();
    resp.ok = doc.at("ok").as_bool();
    if (resp.ok) {
      const JsonValue& result = doc.at("result");
      // Re-serializing reproduces the original bytes: both sides use the
      // same writer and its double format round-trips.
      if (!result.is_null()) resp.result_json = protest::to_json(result, 0);
    } else {
      const JsonValue& error = doc.at("error");
      resp.error_code = error.at("code").as_string();
      resp.error_message = error.at("message").as_string();
    }
  } catch (const ServiceError&) {
    throw;
  } catch (const std::exception& e) {
    throw ServiceError("bad_request", e.what());
  }
  return resp;
}

ServiceResponse ServiceResponse::from_json(std::string_view text) {
  try {
    return from_json_value(parse_json(text));
  } catch (const ServiceError&) {
    throw;
  } catch (const std::exception& e) {
    throw ServiceError("bad_request", e.what());
  }
}

// --- the service ------------------------------------------------------------

Netlist netlist_from_text(const std::string& text) {
  // DSL descriptions contain a 'module' definition; .bench never does.
  if (text.find("module ") != std::string::npos) return elaborate_dsl(text);
  return read_bench_string(text);
}

ProtestService::ProtestService(ServiceConfig config)
    : config_(std::move(config)),
      registry_(config_.max_resident_sessions, config_.parallel),
      jobs_(config_.job_workers) {}

namespace {

/// The tuple an analyze/perturb request targets.
InputProbs request_tuple(const ServiceRequest& req, const Netlist& net) {
  if (!req.input_probs.empty()) return req.input_probs;
  return uniform_input_probs(net, req.p.value_or(0.5));
}

/// Builds lint options from a request: pass subset + the prob-bounds
/// input probability, with the fault passes on the server's shared
/// executor.  Unknown pass names surface as bad_request.
LintOptions lint_options_from(const ServiceRequest& req,
                              std::shared_ptr<Executor> executor) {
  LintOptions opts;
  opts.parallel.executor = std::move(executor);
  opts.passes = req.passes;
  opts.faults = req.faults;
  if (req.p) opts.p = *req.p;
  const auto known = lint_pass_names();
  for (const std::string& p : req.passes) {
    if (std::find(known.begin(), known.end(), p) == known.end()) {
      std::string msg = "unknown lint pass '" + p + "' (available:";
      for (const std::string_view k : known) {
        msg += ' ';
        msg += k;
      }
      throw ServiceError("bad_request", msg + ")");
    }
  }
  return opts;
}

/// The poll/wait result payload.  A done job splices the inner verb's
/// ServiceResponse back BYTE-IDENTICALLY under "response" — the central
/// async-API guarantee; a cancelled job carries no payload at all.
std::string job_payload(const JobInfo& info) {
  JsonWriter w(0);
  w.begin_object();
  w.key("job").value(info.id);
  w.key("verb").value(info.label);
  w.key("state").value(to_string(info.state));
  if (info.state == JobState::Done) {
    w.key("response");
    if (info.payload.empty())
      w.null();
    else
      w.raw(info.payload);
  }
  if (info.state == JobState::Failed) w.key("error").value(info.error);
  w.end_object();
  return w.str();
}

/// `info`, or unknown_job for a ticket this service never issued.
const JobInfo& known_job(const std::optional<JobInfo>& info, std::uint64_t id) {
  if (!info)
    throw ServiceError("unknown_job",
                       "no job with ticket id " + std::to_string(id));
  return *info;
}

}  // namespace

/// The verb table's handlers, one per row: each returns its verb's result
/// payload, and every request reaching one has passed check_request().
struct VerbHandlers {
  static std::string load_netlist(ProtestService& s,
                                  const ServiceRequest& req) {
    if (req.circuit.empty() == req.source.empty())
      throw ServiceError("bad_request",
                         "load_netlist requires exactly one of 'circuit' "
                         "(registry name) or 'source' (netlist text)");
    Netlist net = req.circuit.empty() ? netlist_from_text(req.source)
                                      : make_circuit(req.circuit);
    // Strict mode: the correctness gate for the served fleet — reject
    // netlists with error-severity lint findings before they ever become
    // resident.
    LintReport lint_report;
    if (req.strict) {
      lint_report =
          run_lint(net, lint_options_from(req, s.registry_.executor()));
      if (lint_report.errors > 0) {
        std::string first;
        for (const LintDiagnostic& d : lint_report.diagnostics) {
          if (d.severity == LintSeverity::Error) {
            first = d.message;
            break;
          }
        }
        throw ServiceError(
            "lint_failed",
            "strict load rejected '" + req.netlist + "': " +
                std::to_string(lint_report.errors) +
                " error-severity lint finding(s); first: " + first);
      }
    }
    SessionOptions opts = s.config_.session_defaults;
    if (!req.engine.empty()) opts.engine = req.engine;
    if (req.seed) opts.monte_carlo.seed = *req.seed;
    if (req.patterns) opts.monte_carlo.num_patterns = *req.patterns;
    if (req.max_cached_results)
      opts.max_cached_results = *req.max_cached_results;
    s.registry_.register_netlist(req.netlist, std::move(net), std::move(opts));
    const std::shared_ptr<AnalysisSession> session =
        s.registry_.open(req.netlist);
    JsonWriter w(0);
    w.begin_object();
    w.key("netlist").value(req.netlist);
    w.key("engine").value(session->engine().name());
    const Netlist& n = session->netlist();
    w.key("inputs").value(n.inputs().size());
    w.key("outputs").value(n.outputs().size());
    w.key("gates").value(n.num_gates());
    w.key("faults").value(session->faults().size());
    if (req.strict) {
      session->record_lint(lint_report.errors, lint_report.warnings,
                           lint_report.infos);
      w.key("lint").begin_object();
      w.key("errors").value(lint_report.errors);
      w.key("warnings").value(lint_report.warnings);
      w.key("infos").value(lint_report.infos);
      w.end_object();
    }
    write_string_list(w, "resident", s.registry_.resident_names());
    w.end_object();
    return w.str();
  }

  static std::string lint(ProtestService& s, const ServiceRequest& req) {
    const std::shared_ptr<AnalysisSession> session =
        s.registry_.open(req.netlist);
    const LintReport report = run_lint(
        session->netlist(), lint_options_from(req, s.registry_.executor()));
    session->record_lint(report.errors, report.warnings, report.infos);
    JsonWriter w(0);
    w.begin_object();
    w.key("netlist").value(req.netlist);
    w.key("report");
    w.raw(report.to_json(0));
    w.end_object();
    return w.str();
  }

  static std::string fault_bounds(ProtestService& s,
                                  const ServiceRequest& req) {
    const std::shared_ptr<AnalysisSession> session =
        s.registry_.open(req.netlist);
    // Ride the session's memoized artifact: request ONLY fault_bounds so
    // the analyze computes nothing else, then read the analysis off the
    // result.  A repeat query on the same tuple is a cache hit.
    AnalysisRequest artifacts;
    for (const ArtifactName& a : artifact_name_table())
      artifacts.*a.flag = false;
    artifacts.fault_bounds = true;
    const AnalysisResult res =
        session->analyze(request_tuple(req, session->netlist()), artifacts);
    const FaultAnalysis& fa = res.fault_bounds();
    const std::vector<Fault>& faults = session->faults();
    // Large netlists would otherwise dominate the response line; the
    // summary always ships, the per-fault list is capped.
    constexpr std::size_t kMaxFaultEntries = 4096;
    const std::size_t shown = std::min(fa.bounds.size(), kMaxFaultEntries);
    JsonWriter w(0);
    w.begin_object();
    w.key("netlist").value(req.netlist);
    w.key("summary").begin_object();
    w.key("faults").value(fa.bounds.size());
    w.key("proven_undetectable").value(fa.undetectable);
    w.key("unexcitable").value(fa.unexcitable);
    w.key("unobservable").value(fa.unobservable);
    w.key("proven_detectable").value(fa.detectable);
    w.key("uncertain").value(fa.uncertain);
    w.key("truncated_sweeps").value(fa.truncated_sweeps);
    w.key("frechet_widened").value(fa.frechet_widened);
    w.key("learned_constants").value(fa.learned_constants);
    w.key("settled_fraction").value(fa.settled_fraction());
    w.end_object();
    w.key("faults").begin_array();
    const Netlist& net = session->netlist();
    for (std::size_t f = 0; f < shown; ++f) {
      const FaultBound& b = fa.bounds[f];
      w.begin_object();
      w.key("fault").value(to_string(net, faults[f]));
      w.key("lo").value(b.lo);
      w.key("hi").value(b.hi);
      w.key("verdict").value(to_string(b.verdict));
      if (b.cause != UndetectableCause::None)
        w.key("cause").value(to_string(b.cause));
      if (b.truncated) w.key("truncated").value(true);
      w.end_object();
    }
    w.end_array();
    if (shown < fa.bounds.size()) w.key("faults_truncated").value(true);
    w.end_object();
    return w.str();
  }

  static std::string analyze(ProtestService& s, const ServiceRequest& req) {
    const std::shared_ptr<AnalysisSession> session =
        s.registry_.open(req.netlist);
    return session
        ->analyze(request_tuple(req, session->netlist()),
                  req.artifacts.value_or(AnalysisRequest{}))
        .to_json(0);
  }

  static std::string perturb(ProtestService& s, const ServiceRequest& req) {
    const std::shared_ptr<AnalysisSession> session =
        s.registry_.open(req.netlist);
    // The base analyze is a cache hit when the client analyzed the tuple
    // before — the resident-session payoff: the perturb then re-evaluates
    // only the changed input's fanout cone.
    const AnalysisResult base =
        session->analyze(request_tuple(req, session->netlist()),
                         req.artifacts.value_or(AnalysisRequest{}));
    const AnalysisResult perturbed =
        req.screen ? session->perturb_screen(base, req.input_index, req.new_p)
                   : session->perturb(base, req.input_index, req.new_p);
    return perturbed.to_json(0);
  }

  static std::string optimize(ProtestService& s, const ServiceRequest& req) {
    const std::shared_ptr<AnalysisSession> session =
        s.registry_.open(req.netlist);
    const std::uint64_t n_param = req.n_parameter.value_or(10'000);
    // A clone keeps the resident session's engine free for concurrent
    // analyze callers (same reasoning as Protest::optimize).
    const ObjectiveEvaluator eval(
        std::shared_ptr<const SignalProbEngine>(session->engine().clone()),
        session->faults(), n_param, session->options().observability,
        session->options().parallel);
    HillClimbOptions opts;
    if (req.sweeps) opts.max_sweeps = *req.sweeps;
    const HillClimbResult res = optimize_input_probs(eval, opts);
    JsonWriter w(0);
    w.begin_object();
    w.key("netlist").value(req.netlist);
    w.key("engine").value(session->engine().name());
    w.key("n_parameter").value(n_param);
    w.key("log_objective").value(res.log_objective);
    w.key("evaluations").value(res.evaluations);
    w.key("sweeps").value(static_cast<std::uint64_t>(res.sweeps));
    w.key("optimized_probs").begin_array();
    const Netlist& net = session->netlist();
    const auto inputs = net.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      w.begin_object();
      w.key("input").value(net.name_of(inputs[i]));
      w.key("p").value(res.probs[i]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

  static std::string stats(ProtestService& s, const ServiceRequest& req) {
    const SessionRegistry& registry = s.registry_;
    const std::vector<std::string> registered = registry.registered_names();
    JsonWriter w(0);
    w.begin_object();
    if (req.netlist.empty()) {  // registry overview
      write_string_list(w, "registered", registered);
      write_string_list(w, "resident", registry.resident_names());
      w.key("max_resident").value(registry.max_resident());
      w.key("executor_workers").value(registry.executor()->num_workers());
      w.end_object();
      return w.str();
    }
    // Named probe: never revives an evicted session (that would defeat
    // the point of asking) and never touches LRU order.
    if (std::find(registered.begin(), registered.end(), req.netlist) ==
        registered.end())
      throw ServiceError("unknown_netlist",
                         "no netlist registered under '" + req.netlist + "'");
    const std::shared_ptr<AnalysisSession> session =
        registry.find_resident(req.netlist);
    w.key("netlist").value(req.netlist);
    w.key("resident").value(session != nullptr);
    if (session) {
      w.key("engine").value(session->engine().name());
      w.key("faults").value(session->faults().size());
      w.key("stats");
      session->stats().write(w);
    }
    w.end_object();
    return w.str();
  }

  static std::string evict(ProtestService& s, const ServiceRequest& req) {
    const bool evicted = s.registry_.evict(req.netlist);
    JsonWriter w(0);
    w.begin_object();
    w.key("netlist").value(req.netlist);
    w.key("evicted").value(evicted);
    w.end_object();
    return w.str();
  }

  static std::string shutdown(ProtestService& s, const ServiceRequest&) {
    s.shutdown_.store(true, std::memory_order_release);
    // Unfinished jobs stop at their next checkpoint instead of pinning
    // the daemon's exit on a long Monte-Carlo budget.
    s.jobs_.cancel_all();
    return "{\"shutting_down\":true}";
  }

  static std::string submit(ProtestService& s, const ServiceRequest& req) {
    // The job re-enters handle(): the stored payload IS the synchronous
    // verb's ServiceResponse, serialized compactly — which is what makes
    // poll/wait byte-identical to the synchronous path.
    const ServiceRequest inner = *req.subrequest;
    const JobTicket ticket =
        s.jobs_.submit(std::string(to_string(inner.verb)),
                       [&s, inner] { return s.handle(inner).to_json(0); });
    JsonWriter w(0);
    w.begin_object();
    w.key("job").value(ticket.id);
    w.key("verb").value(to_string(inner.verb));
    w.key("state").value(to_string(ticket.state));
    w.end_object();
    return w.str();
  }

  // The job verbs read `job` through value_or: check_request() has
  // already rejected requests without one.
  static std::string poll(ProtestService& s, const ServiceRequest& req) {
    const std::uint64_t id = req.job.value_or(0);
    return job_payload(known_job(s.jobs_.poll(id), id));
  }

  static std::string wait(ProtestService& s, const ServiceRequest& req) {
    const std::uint64_t id = req.job.value_or(0);
    std::optional<std::chrono::milliseconds> timeout;
    if (req.timeout_ms) timeout = std::chrono::milliseconds(*req.timeout_ms);
    return job_payload(known_job(s.jobs_.wait(id, timeout), id));
  }

  static std::string cancel(ProtestService& s, const ServiceRequest& req) {
    const std::uint64_t id = req.job.value_or(0);
    known_job(s.jobs_.poll(id), id);
    // requested == false means the job had already finished — the result
    // stands; a poll will return it.
    const bool requested = s.jobs_.cancel(id);
    JsonWriter w(0);
    w.begin_object();
    w.key("job").value(id);
    w.key("requested").value(requested);
    w.end_object();
    return w.str();
  }

  static std::string jobs(ProtestService& s, const ServiceRequest&) {
    JsonWriter w(0);
    w.begin_object();
    w.key("jobs").begin_array();
    for (const JobInfo& j : s.jobs_.jobs()) {
      w.begin_object();
      w.key("job").value(j.id);
      w.key("verb").value(j.label);
      w.key("state").value(to_string(j.state));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }
};

namespace {

// Only work-class verbs run as jobs — the same class the pipelined front
// end fans out.  Job-control verbs nesting inside jobs would deadlock (a
// waiting job occupying the worker its target needs); shutdown must act
// on the serving loop directly; and load_netlist/evict plus stats are
// instant and keep their deterministic order in the request stream — a
// ticketed load racing a pipelined analyze would reintroduce exactly the
// reordering hazard the barrier class rules out.  Only idempotent reads
// retry after a worker loss: optimize is stochastic and expensive, evict
// mutates residency, and the rest are not routed through a retry at all.
constexpr VerbRow kVerbTable[] = {
    {ServiceVerb::LoadNetlist, "load_netlist", VerbClass::Barrier,
     VerbNeeds::Netlist, false, VerbRoute::Load, &VerbHandlers::load_netlist},
    {ServiceVerb::Lint, "lint", VerbClass::Work, VerbNeeds::Netlist, true,
     VerbRoute::Home, &VerbHandlers::lint},
    {ServiceVerb::FaultBounds, "fault_bounds", VerbClass::Work,
     VerbNeeds::Netlist, true, VerbRoute::Home, &VerbHandlers::fault_bounds},
    {ServiceVerb::Analyze, "analyze", VerbClass::Work, VerbNeeds::Netlist,
     true, VerbRoute::Home, &VerbHandlers::analyze},
    {ServiceVerb::Perturb, "perturb", VerbClass::Work, VerbNeeds::Netlist,
     true, VerbRoute::Home, &VerbHandlers::perturb},
    {ServiceVerb::Optimize, "optimize", VerbClass::Work, VerbNeeds::Netlist,
     false, VerbRoute::Home, &VerbHandlers::optimize},
    {ServiceVerb::Stats, "stats", VerbClass::Inline, VerbNeeds::Nothing, true,
     VerbRoute::Stats, &VerbHandlers::stats},
    {ServiceVerb::Evict, "evict", VerbClass::Barrier, VerbNeeds::Netlist,
     false, VerbRoute::Home, &VerbHandlers::evict},
    {ServiceVerb::Shutdown, "shutdown", VerbClass::Barrier, VerbNeeds::Nothing,
     false, VerbRoute::Shutdown, &VerbHandlers::shutdown},
    {ServiceVerb::Submit, "submit", VerbClass::Inline, VerbNeeds::Work, false,
     VerbRoute::Submit, &VerbHandlers::submit},
    {ServiceVerb::Poll, "poll", VerbClass::Inline, VerbNeeds::Job, false,
     VerbRoute::Job, &VerbHandlers::poll},
    {ServiceVerb::Wait, "wait", VerbClass::Inline, VerbNeeds::Job, false,
     VerbRoute::Wait, &VerbHandlers::wait},
    {ServiceVerb::Cancel, "cancel", VerbClass::Inline, VerbNeeds::Job, false,
     VerbRoute::Job, &VerbHandlers::cancel},
    {ServiceVerb::Jobs, "jobs", VerbClass::Inline, VerbNeeds::Nothing, false,
     VerbRoute::Jobs, &VerbHandlers::jobs},
};

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kVerbTable); ++i)
    if (static_cast<std::size_t>(kVerbTable[i].verb) != i) return false;
  return std::size(kVerbTable) ==
         static_cast<std::size_t>(ServiceVerb::Jobs) + 1;
}
static_assert(rows_in_enum_order(), "one row per ServiceVerb, in enum order");

}  // namespace

std::span<const VerbRow> verb_table() { return kVerbTable; }

const VerbRow& verb_row(ServiceVerb verb) {
  return kVerbTable[static_cast<std::size_t>(verb)];
}

void check_request(const ServiceRequest& req) {
  const std::string_view verb = to_string(req.verb);
  const auto missing = [verb](const char* what) {
    return ServiceError("bad_request", "verb '" + std::string(verb) +
                                           "' requires " + what);
  };
  switch (verb_row(req.verb).needs) {
    case VerbNeeds::Nothing:
      return;
    case VerbNeeds::Netlist:
      if (req.netlist.empty()) throw missing("a 'netlist' name");
      return;
    case VerbNeeds::Job:
      if (!req.job) throw missing("a 'job' ticket id");
      return;
    case VerbNeeds::Work:
      if (!req.subrequest)
        throw ServiceError("bad_request",
                           std::string(verb) +
                               " requires a 'request' object (the verb to "
                               "run as a job)");
      if (verb_row(req.subrequest->verb).line_class != VerbClass::Work) {
        std::string work;
        for (const VerbRow& row : kVerbTable) {
          if (row.line_class != VerbClass::Work) continue;
          work += work.empty() ? "" : "/";
          work += row.name;
        }
        throw ServiceError("bad_request",
                           "verb '" +
                               std::string(to_string(req.subrequest->verb)) +
                               "' cannot run as a job (only the work verbs " +
                               work + " are submittable)");
      }
      return;
  }
}

ServiceResponse ProtestService::handle(const ServiceRequest& request) {
  const std::string_view verb = to_string(request.verb);
  // A deadline_ms budget becomes a deadline token linked to the ambient
  // token (a job's cancel, a connection's drop), installed for the span
  // of dispatch.  The existing checkpoints — Monte-Carlo shards, hill-
  // climb coordinates, batch tasks — now observe the deadline for free.
  std::optional<CancelScope> deadline_scope;
  if (request.deadline_ms) {
    deadline_scope.emplace(CancelToken::with_deadline(
        current_cancel_token(),
        std::chrono::steady_clock::now() +
            std::chrono::milliseconds(*request.deadline_ms)));
  }
  try {
    check_request(request);
    return ServiceResponse::success(
        request, verb_row(request.verb).handle(*this, request));
  } catch (const OperationCancelled& e) {
    // An expired deadline THIS request declared answers structurally —
    // the caller asked for a budget and gets told it ran out.  Everything
    // else (explicit job cancel, an outer deadline) propagates to the
    // layer that owns it: the job layer records cancelled, an outer
    // handle() converts its own deadline.
    if (request.deadline_ms && e.reason() == CancelReason::DeadlineExceeded) {
      return ServiceResponse::failure(
          request.id, verb, "deadline_exceeded",
          "request exceeded its deadline_ms=" +
              std::to_string(*request.deadline_ms) + " budget");
    }
    throw;
  } catch (const ServiceError& e) {
    return ServiceResponse::failure(request.id, verb, e.code(), e.what());
  } catch (const std::invalid_argument& e) {
    // Validation thrown by the layers below (bad tuple arity, probability
    // out of range, unknown engine/circuit names, ...).
    return ServiceResponse::failure(request.id, verb, "bad_request", e.what());
  } catch (const std::exception& e) {
    return ServiceResponse::failure(request.id, verb, "internal", e.what());
  }
}

std::string ProtestService::respond(const ServiceRequest& request) {
  return handle(request).to_json(0);
}

std::string ServiceEndpoint::handle_line(std::string_view line) {
  std::uint64_t id = 0;
  std::string verb;
  try {
    const JsonValue doc = parse_json(line);
    // Best-effort verb/id extraction so even undecodable requests get a
    // correlatable error response.  The verb comes FIRST and the id is
    // guarded separately: a malformed id (negative, fractional, beyond
    // 2^53, wrong type) must echo id:0 alongside the bad_request error —
    // never a partially-converted value, and never at the cost of the
    // verb echo.
    if (doc.is_object()) {
      if (const JsonValue* v = doc.find("verb"); v && v->is_string())
        verb = v->as_string();
      if (const JsonValue* v = doc.find("id"); v && v->is_number()) {
        try {
          id = to_uint(*v);
        } catch (const std::exception&) {
          id = 0;  // from_json_value below reports the bad member
        }
      }
    }
    return respond(ServiceRequest::from_json_value(doc));
  } catch (const OperationCancelled&) {
    throw;  // see ProtestService::handle()
  } catch (const ServiceError& e) {
    return ServiceResponse::failure(id, verb, e.code(), e.what()).to_json(0);
  } catch (const std::exception& e) {
    return ServiceResponse::failure(id, verb, "bad_request", e.what())
        .to_json(0);
  }
}

// --- the daemon loops -------------------------------------------------------

namespace {

/// Best-effort verb name of a request line ("" when it has none).  The
/// fault hook and pipelined dispatch share this one parse per line;
/// malformed lines answer inline with their structured error.
std::string peek_verb(std::string_view line) {
  try {
    const JsonValue doc = parse_json(line);
    if (doc.is_object())
      if (const JsonValue* v = doc.find("verb"); v && v->is_string())
        return v->as_string();
  } catch (const std::exception&) {
  }
  return "";
}

/// Applies an armed fault rule for this request line.  Returns true when
/// the request was CONSUMED by the fault (garbage emitted instead of a
/// response) — the caller must not dispatch it.  Crash never returns;
/// stall sleeps the calling (reader) thread, so heartbeats stop being
/// answered and the supervisor sees a wedged worker, then falls through
/// to normal dispatch.
bool apply_fault(FaultInjector& injector, const std::string& verb,
                 const std::function<bool(const std::string&)>& emit) {
  FaultAction action;
  if (!injector.should_fire(verb, &action)) return false;
  switch (action) {
    case FaultAction::Crash:
      std::_Exit(9);  // a hard crash: no unwinding, no flushing
    case FaultAction::Stall:
      std::this_thread::sleep_for(injector.stall_duration());
      return false;
    case FaultAction::Garbage:
      emit(FaultInjector::garbage_line());
      return true;
  }
  return false;
}

/// Pipelined out-of-order dispatch for one connection: up to `slots` work
/// lines run concurrently on private threads, responses interleave on the
/// sink (serialized per line), and dispatch() BLOCKS while every slot is
/// busy — the connection-level backpressure that throttles a flooding
/// client by its own unfinished work.
class LineDispatcher {
 public:
  /// `sink` writes one complete response line (it is called under an
  /// internal lock, so lines never interleave) and returns false once the
  /// connection is dead.
  LineDispatcher(ServiceEndpoint& service, std::size_t slots,
                 std::function<bool(const std::string&)> sink)
      : service_(service),
        slots_(slots == 0 ? 1 : slots),
        sink_(std::move(sink)) {}

  ~LineDispatcher() {
    drain();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      work_cv_.notify_all();
    }
    for (std::thread& t : threads_) t.join();
  }

  /// Routes one trimmed, non-blank request line by its verb's row (an
  /// unknown verb answers inline).  Returns false once the sink has failed.
  bool dispatch(std::string line, std::string_view verb) {
    const VerbRow* row = find_verb(verb);
    switch (row ? row->line_class : VerbClass::Inline) {
      case VerbClass::Work: {
        std::unique_lock<std::mutex> lock(mu_);
        if (threads_.empty()) {
          threads_.reserve(slots_);
          for (std::size_t i = 0; i < slots_; ++i)
            threads_.emplace_back([this] { worker_loop(); });
        }
        // Backpressure: stall the reader until a slot frees up.
        capacity_cv_.wait(lock, [&] {
          return inflight_ < slots_ || sink_failed_.load();
        });
        if (sink_failed_.load()) return false;
        ++inflight_;
        queue_.push_back(std::move(line));
        work_cv_.notify_one();
        return true;
      }
      case VerbClass::Barrier:
        // In-flight work completes first, so "load then query" scripts
        // and evict-after-analyze mean the same thing as in serial mode.
        drain();
        return respond(service_.handle_line(line));
      case VerbClass::Inline:
        return respond(service_.handle_line(line));
    }
    return true;
  }

  /// Blocks until every dispatched work line has been answered.
  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return inflight_ == 0; });
  }

  /// Cancels every in-flight work line at its next checkpoint.  Called
  /// when the connection is gone (hard reset, failed write): the work's
  /// responses have no reader, so finishing a long Monte-Carlo run would
  /// only burn the shared executor.  Ticketed jobs are NOT affected —
  /// they run under their own job tokens on the JobManager's threads and
  /// stay pollable from other connections.
  void cancel_inflight() { conn_token_.request_cancel(); }

 private:
  void worker_loop() {
    for (;;) {
      std::string line;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, nothing left
        line = std::move(queue_.front());
        queue_.pop_front();
      }
      try {
        const CancelScope scope(conn_token_);
        const std::string response = service_.handle_line(line);
        respond(response);
      } catch (const OperationCancelled&) {
        // The connection dropped and cancel_inflight() fired: there is
        // nobody left to answer, so just release the slot.
      }
      {
        const std::lock_guard<std::mutex> lock(mu_);
        --inflight_;
        done_cv_.notify_all();
        capacity_cv_.notify_one();
      }
    }
  }

  bool respond(const std::string& response) {
    const std::lock_guard<std::mutex> lock(out_mu_);
    if (sink_failed_.load()) return false;
    if (!sink_(response)) {
      sink_failed_.store(true);
      // Unblock a reader stalled on backpressure and stop burning cycles
      // on work nobody can read; workers still drain the queue (their
      // writes fail fast above).
      cancel_inflight();
      capacity_cv_.notify_all();
      return false;
    }
    return true;
  }

  ServiceEndpoint& service_;
  const std::size_t slots_;
  const std::function<bool(const std::string&)> sink_;
  std::mutex mu_;                       ///< queue + inflight + stopping
  std::mutex out_mu_;                   ///< serializes sink writes
  std::condition_variable work_cv_;     ///< queue gained work / stopping
  std::condition_variable capacity_cv_; ///< a slot freed up
  std::condition_variable done_cv_;     ///< inflight hit zero
  std::deque<std::string> queue_;
  std::vector<std::thread> threads_;    ///< spawned on first work line
  std::size_t inflight_ = 0;            ///< queued + running work lines
  bool stopping_ = false;
  std::atomic<bool> sink_failed_{false};
  /// Connection-lifetime token, ambient around every pipelined dispatch.
  const CancelToken conn_token_ = CancelToken::source();
};

/// Serves one raw request line: CR-trimmed, skipped when blank, offered
/// to the fault hook, then dispatched — pipelined when `dispatcher` is
/// set, else answered in order through `emit`.  The verb is parsed only
/// when the hook or the dispatcher needs it.  Returns false once the
/// output has failed.
bool serve_line(ServiceEndpoint& service, LineDispatcher* dispatcher,
                FaultInjector* injector, std::string_view line,
                const std::function<bool(const std::string&)>& emit) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.find_first_not_of(" \t") == std::string_view::npos) return true;
  const bool armed = injector && injector->armed();
  const std::string verb = armed || dispatcher ? peek_verb(line) : "";
  if (armed && apply_fault(*injector, verb, emit)) return true;
  if (dispatcher) return dispatcher->dispatch(std::string(line), verb);
  return emit(service.handle_line(line));
}

}  // namespace

/// A client that closes its read end must surface as a failed stream
/// write on THIS loop, never as a process-wide SIGPIPE killing the
/// daemon.  Idempotent; called by every serve entry point.
void ignore_sigpipe();

int serve_ndjson(ServiceEndpoint& service, std::istream& in, std::ostream& out,
                 ServeOptions options) {
  ignore_sigpipe();
  const std::function<bool(const std::string&)> emit =
      [&out](const std::string& response) {
        out << response << "\n" << std::flush;
        return static_cast<bool>(out);
      };
  // Without a dispatcher: serial mode, one request at a time, responses
  // in request order.
  std::optional<LineDispatcher> dispatcher;
  if (options.max_inflight > 0)
    dispatcher.emplace(service, options.max_inflight, emit);
  std::string line;
  while (std::getline(in, line)) {
    if (!serve_line(service, dispatcher ? &*dispatcher : nullptr,
                    options.injector, line, emit))
      break;  // downstream closed
    if (service.shutdown_requested()) break;
  }
  if (dispatcher) dispatcher->drain();  // in-flight responses land first
  return 0;
}

}  // namespace protest

// --- TCP front end (POSIX only) ---------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

namespace protest {

void ignore_sigpipe() {
  // A write to a closed pipe/socket then fails with EPIPE instead of
  // raising a process-killing signal.  Sends additionally pass
  // MSG_NOSIGNAL where available; this covers stdout-pipe serving and
  // platforms without the flag.
  std::signal(SIGPIPE, SIG_IGN);
}

namespace {

/// Sends the whole buffer, retrying on partial writes and EINTR.  A peer
/// that resets the connection must surface as a failed send on THIS
/// connection, never as a process-wide SIGPIPE killing the daemon —
/// hence MSG_NOSIGNAL (SO_NOSIGPIPE is set on the socket where that
/// flag doesn't exist).
bool write_all(int fd, std::string_view data) {
#ifdef MSG_NOSIGNAL
  constexpr int kSendFlags = MSG_NOSIGNAL;
#else
  constexpr int kSendFlags = 0;
#endif
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// True when the fd has readable data (or EOF) within `timeout_ms`.
bool wait_readable(int fd, int timeout_ms) {
  struct pollfd pfd = {fd, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

/// One client connection: NDJSON request lines in, response lines out.
/// Polls so the thread notices a shutdown triggered by another client.
/// With options.max_inflight > 0 the connection pipelines: work-verb
/// responses return out of order and reading stalls while every dispatch
/// slot is busy (see ServeOptions).
///
/// Disconnect handling: a mid-response disconnect (EPIPE/ECONNRESET on
/// write) or a hard reset on read logs-and-closes THIS connection only —
/// SIGPIPE is ignored process-wide, so the daemon survives — and cancels
/// the connection's in-flight pipelined work at its next checkpoint.
/// An orderly EOF instead drains: in-flight responses still complete
/// (the client may have half-closed and be reading).
void serve_connection(ServiceEndpoint& service, int fd,
                      const ServeOptions& options, std::ostream& log,
                      std::mutex& log_mu) {
#ifdef SO_NOSIGPIPE
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#endif
  const std::function<bool(const std::string&)> emit =
      [fd](const std::string& response) {
        return write_all(fd, response + "\n");
      };
  std::optional<LineDispatcher> dispatcher;
  if (options.max_inflight > 0)
    dispatcher.emplace(service, options.max_inflight, emit);
  bool client_lost = false;
  std::string pending;
  char buf[4096];
  while (!service.shutdown_requested()) {
    if (!wait_readable(fd, 200)) continue;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {  // hard drop (reset): nobody will read our responses
      client_lost = true;
      break;
    }
    if (n == 0) break;  // orderly EOF: drain below
    pending.append(buf, static_cast<std::size_t>(n));
    bool io_ok = true;
    std::size_t start = 0;
    for (std::size_t nl;
         io_ok && (nl = pending.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      // No fault hook here: an injector is consulted from one reader
      // thread, and connections each read on their own.
      io_ok = serve_line(service, dispatcher ? &*dispatcher : nullptr,
                         /*injector=*/nullptr,
                         std::string_view(pending.data() + start, nl - start),
                         emit);
      if (service.shutdown_requested()) break;
    }
    pending.erase(0, start);
    if (!io_ok) {
      client_lost = true;
      break;
    }
  }
  if (dispatcher) {
    if (client_lost) dispatcher->cancel_inflight();
    dispatcher->drain();  // flush (or release) in-flight responses
  }
  if (client_lost) {
    const std::lock_guard<std::mutex> lock(log_mu);
    log << "protest serve: client disconnected mid-response; closing its "
           "connection\n"
        << std::flush;
  }
  ::close(fd);
}

}  // namespace

bool tcp_serve_supported() { return true; }

int serve_tcp(ServiceEndpoint& service, std::uint16_t port, std::ostream& log,
              std::atomic<std::uint16_t>* bound_port, ServeOptions options) {
  ignore_sigpipe();
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0)
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd);
    throw std::runtime_error("bind/listen 127.0.0.1:" + std::to_string(port) +
                             ": " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t actual_port = ntohs(addr.sin_port);
  if (bound_port) *bound_port = actual_port;
  log << "protest serve: listening on 127.0.0.1:" << actual_port << "\n"
      << std::flush;

  // One thread per live connection.  Finished threads are reaped on
  // every accept-loop pass (their `done` flag flips as the last thing the
  // connection does), so a long-lived daemon serving many short-lived
  // clients never accumulates exited-but-unjoined threads.
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> connections;
  const auto reap = [&connections](bool all) {
    for (auto it = connections.begin(); it != connections.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };

  std::mutex log_mu;  // connection threads share the log stream
  while (!service.shutdown_requested()) {
    reap(/*all=*/false);
    // Poll so the accept loop notices a shutdown handled on a connection
    // thread without needing a wake-up connection.
    if (!wait_readable(listen_fd, 200)) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    connections.push_back(
        {std::thread([&service, fd, done, options, &log, &log_mu] {
           serve_connection(service, fd, options, log, log_mu);
           done->store(true, std::memory_order_release);
         }),
         done});
  }
  ::close(listen_fd);
  reap(/*all=*/true);
  log << "protest serve: shut down\n" << std::flush;
  return 0;
}

}  // namespace protest

#else  // no POSIX sockets

namespace protest {

void ignore_sigpipe() {}  // no SIGPIPE to ignore

bool tcp_serve_supported() { return false; }

int serve_tcp(ServiceEndpoint&, std::uint16_t, std::ostream&,
              std::atomic<std::uint16_t>*, ServeOptions) {
  throw ServiceError("unsupported",
                     "TCP serving is not available on this platform; use "
                     "stdin/stdout NDJSON mode");
}

}  // namespace protest

#endif
