// Shared helpers for the table/figure reproduction harnesses.  Every bench
// binary prints the paper's published rows next to our measured ones; the
// goal is matching *shape* (who wins, rough factors, crossovers), not the
// authors' absolute 1985 numbers.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
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

/// SHA-256 of `data` (FIPS 180-4), as 64 lowercase hex digits.
inline std::string sha256_hex(const std::string& data) {
  static constexpr std::uint32_t k[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const auto rotr = [](std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  };
  std::string msg = data;
  msg += static_cast<char>(0x80);
  while (msg.size() % 64 != 56) msg += '\0';
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) msg += static_cast<char>((bits >> (8 * i)) & 0xff);
  for (std::size_t off = 0; off < msg.size(); off += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = 0;
      for (int b = 0; b < 4; ++b)
        w[i] = (w[i] << 8) | static_cast<unsigned char>(msg[off + 4 * i + b]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a[8];
    std::copy(h, h + 8, a);
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 =
          a[7] + (rotr(a[4], 6) ^ rotr(a[4], 11) ^ rotr(a[4], 25)) +
          ((a[4] & a[5]) ^ (~a[4] & a[6])) + k[i] + w[i];
      const std::uint32_t t2 =
          (rotr(a[0], 2) ^ rotr(a[0], 13) ^ rotr(a[0], 22)) +
          ((a[0] & a[1]) ^ (a[0] & a[2]) ^ (a[1] & a[2]));
      std::copy_backward(a, a + 7, a + 8);
      a[4] += t1;
      a[0] = t1 + t2;
    }
    for (int i = 0; i < 8; ++i) h[i] += a[i];
  }
  std::string hex;
  for (const std::uint32_t v : h) {
    char buf[9];
    std::snprintf(buf, sizeof buf, "%08x", v);
    hex += buf;
  }
  return hex;
}

/// Digest of the program's sources under `root`: SHA-256 over each file's
/// relative path and bytes — every non-hidden file below src/ in sorted
/// path order, then CMakeLists.txt and tools/protest_main.cpp — cut to 16
/// hex digits.  The same value perfbench/run.py records as its
/// `source_digest`, so unlike the commit it tells a dirty tree from HEAD.
inline std::string source_digest(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root + "/src", ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->path().filename().string().rfind('.', 0) == 0) {
      if (it->is_directory()) it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file())
      files.push_back(fs::relative(it->path(), root).generic_string());
  }
  std::sort(files.begin(), files.end());
  files.push_back("CMakeLists.txt");
  files.push_back("tools/protest_main.cpp");
  std::string all;
  for (const std::string& f : files) {
    std::ifstream in(root + "/" + f, std::ios::binary);
    if (!in) continue;
    all += f;
    all.append(std::istreambuf_iterator<char>(in), {});
  }
  return sha256_hex(all).substr(0, 16);
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
/// this is the mask it inherits), CPU model, compiler, build type, the
/// commit of the checkout the bench was built from, and the digest of the
/// sources it reads at run time (source_digest; a bench run on an
/// uncommitted tree names HEAD's commit but its own digest).
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
  json.info("source_digest", source_digest(PROTEST_SOURCE_DIR));
}

}  // namespace protest::bench
