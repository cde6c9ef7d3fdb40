// Shared helpers for the table/figure reproduction harnesses.  Every bench
// binary prints the paper's published rows next to our measured ones; the
// goal is matching *shape* (who wins, rough factors, crossovers), not the
// authors' absolute 1985 numbers.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "analysis/table.hpp"
#include "protest/protest.hpp"
#include "testlen/test_length.hpp"

namespace protest::bench {

/// Wall-clock seconds of a callable.
template <typename F>
double time_seconds(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

inline std::string fmt_testlen(std::uint64_t n) {
  return n == kInfiniteTestLength ? "inf" : fmt_int(n);
}

/// Detection probabilities restricted to estimated-detectable faults
/// (drops exact zeros: structurally unobservable/untestable faults, which
/// the paper's finite d=1.0 rows implicitly exclude).
inline std::vector<double> detectable(const std::vector<double>& pf) {
  std::vector<double> out;
  out.reserve(pf.size());
  for (double p : pf)
    if (p > 0.0) out.push_back(p);
  return out;
}

inline void print_header(const char* what) {
  std::printf("==================================================================\n");
  std::printf("PROTEST reproduction — %s\n", what);
  std::printf("==================================================================\n");
}

/// Machine-readable companion to the printed tables: collects flat
/// key -> number metrics and writes them as BENCH_<name>.json in the
/// working directory, so perf claims (e.g. the batching speedup) are
/// recorded per run and diffable across commits.  Keys are dot-joined
/// plain identifiers ("alu.protest.batch_seconds") — no escaping needed.
/// Optional string entries (the machine record) go to an "info" object.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  void info(const std::string& key, const std::string& value) {
    info_.emplace_back(key, value);
  }

  std::string path() const { return "BENCH_" + name_ + ".json"; }

  /// Writes the file; returns false (and warns on stderr) on I/O failure.
  bool write() const {
    std::FILE* f = std::fopen(path().c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path().c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    if (!info_.empty()) {
      std::fprintf(f, "  \"info\": {\n");
      for (std::size_t i = 0; i < info_.size(); ++i)
        std::fprintf(f, "    \"%s\": \"%s\"%s\n", info_[i].first.c_str(),
                     escaped(info_[i].second).c_str(),
                     i + 1 < info_.size() ? "," : "");
      std::fprintf(f, "  },\n");
    }
    std::fprintf(f, "  \"metrics\": {\n");
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::fprintf(f, "    \"%s\": %.9g%s\n", metrics_[i].first.c_str(),
                   metrics_[i].second, i + 1 < metrics_.size() ? "," : "");
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu metrics)\n", path().c_str(), metrics_.size());
    return true;
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, double>> metrics_;
};

#ifndef PROTEST_BUILD_TYPE
#define PROTEST_BUILD_TYPE "unknown"
#endif
#ifndef PROTEST_SOURCE_DIR
#define PROTEST_SOURCE_DIR "."
#endif

/// Commit id that HEAD of the git directory `git_dir` names, read from
/// HEAD, the loose ref or packed-refs ("unknown" when none resolves).
/// Uncommitted edits in the working tree are not reflected.
inline std::string head_commit(const std::string& git_dir) {
  std::ifstream head_file(git_dir + "/HEAD");
  std::string head;
  std::getline(head_file, head);
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  std::ifstream loose(git_dir + "/" + ref);
  std::string id;
  if (std::getline(loose, id) && !id.empty()) return id;
  std::ifstream packed(git_dir + "/packed-refs");
  for (std::string line; std::getline(packed, line);)
    if (line.size() > ref.size() + 1 &&
        line.compare(line.size() - ref.size(), ref.size(), ref) == 0 &&
        line[line.size() - ref.size() - 1] == ' ')
      return line.substr(0, line.size() - ref.size() - 1);
  return "unknown";
}

/// CPUs the calling thread may run on, as a list ("0-3,6"); "unknown"
/// where the platform does not say.
inline std::string affinity_list() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set) || (c > 0 && CPU_ISSET(c - 1, &set))) continue;
    int last = c;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(c);
    if (last > c) out += '-' + std::to_string(last);
  }
  return out;
#else
  return "unknown";
#endif
}

/// Records the machine a run was measured on: hardware threads, physical
/// cores (distinct package/core pairs in /proc/cpuinfo, 0 when it lists
/// none), the CPUs the bench's threads may run on (it pins none itself;
/// this is the mask it inherits), CPU model, compiler, build type and the
/// commit of the checkout the bench was built from.
inline void record_machine(BenchJson& json) {
  json.metric("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  std::string cpu = "unknown", package;
  std::set<std::string> cores;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(" \t"));
    if (line.rfind("model name", 0) == 0 && cpu == "unknown") cpu = value;
    if (line.rfind("physical id", 0) == 0) package = value;
    if (line.rfind("core id", 0) == 0) cores.insert(package + "/" + value);
  }
  json.metric("physical_cores", static_cast<double>(cores.size()));
  json.info("affinity", affinity_list());
  json.info("cpu_model", cpu);
#if defined(__clang__)
  json.info("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  json.info("compiler", std::string("gcc ") + __VERSION__);
#else
  json.info("compiler", "unknown");
#endif
  json.info("build_type", PROTEST_BUILD_TYPE);
  json.info("commit", head_commit(PROTEST_SOURCE_DIR "/.git"));
}

}  // namespace protest::bench
