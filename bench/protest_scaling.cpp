// PROTEST estimator scaling along the stress ladder (1k -> 20k gates):
// where a call's time goes as circuits grow.  Per rung it records
//
//   first_call_s   signal_probs on a fresh estimator: plan + select + eval
//   select_eval_s  signal_probs on a fresh tuple with the plan cached:
//                  covariance selection of W plus formula (2)
//   eval_only_s    one extra element of signal_probs_batch: formula (2)
//                  on the W selected at element 0
//   plan_s         first_call_s - select_eval_s: building the per-gate
//                  plan (bounded cones, candidate joining points)
//   peak_rss_mb    the process's peak resident set after the rung; rungs
//                  run in ascending size, so this is the rung's own peak,
//                  dominated by the plan, which keeps every conditioned
//                  gate's bounded cone
//
// Single-threaded.  Emits BENCH_protest_scaling.json with the machine
// record.  --quick stops at the 10k rung; --max-select-eval-10k S exits
// nonzero when the 10k rung's select+eval takes longer than S seconds (the
// CI release job's floor).  The ladder stops at 20k gates because the
// plan's memory grows ~4x per doubling (~0.9 GB at 20k): zoo:stress100k's
// plan passed 9 GB resident two minutes into building on a 4-thread box.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/random_circuit.hpp"
#include "prob/protest_estimator.hpp"

namespace protest {
namespace {

/// Deterministic input tuple in [0.1, 0.9] (golden-ratio walk).
InputProbs tuple_for(const Netlist& net, double phase) {
  InputProbs t(net.inputs().size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double u = static_cast<double>(i) * 0.6180339887498949 + phase;
    t[i] = 0.1 + 0.8 * (u - static_cast<double>(static_cast<long>(u)));
  }
  return t;
}

/// Peak resident set of this process in MB (VmHWM; 0 where unavailable).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

struct Rung {
  double first_call_s = 0.0;
  double select_eval_s = 0.0;
  double eval_only_s = 0.0;
  double plan_s = 0.0;
};

/// Times one rung.  select_eval_s and eval_only_s are the best of `reps`
/// (min damps scheduler noise); eval-only is the batch's extra element,
/// i.e. batch({a, b}) minus signal_probs(a).
Rung measure(const Netlist& net, int reps) {
  Rung r;
  const ProtestEstimator est(net);
  const InputProbs t0 = tuple_for(net, 0.25);
  const InputProbs t1 = tuple_for(net, 0.5);
  const InputProbs t2 = tuple_for(net, 0.75);
  r.first_call_s = bench::time_seconds([&] { est.signal_probs(t0); });
  r.select_eval_s = 1e300;
  for (int i = 0; i < reps; ++i)
    r.select_eval_s = std::min(
        r.select_eval_s, bench::time_seconds([&] { est.signal_probs(t1); }));
  r.plan_s = std::max(0.0, r.first_call_s - r.select_eval_s);
  const std::vector<InputProbs> batch = {t1, t2};
  double batch_s = 1e300;
  for (int i = 0; i < reps; ++i)
    batch_s = std::min(batch_s, bench::time_seconds(
                                    [&] { est.signal_probs_batch(batch); }));
  r.eval_only_s = std::max(0.0, batch_s - r.select_eval_s);
  return r;
}

void record(bench::BenchJson& json, TextTable& table, const std::string& key,
            const Netlist& net, const Rung& r) {
  json.metric(key + ".gates", static_cast<double>(net.num_gates()));
  json.metric(key + ".first_call_s", r.first_call_s);
  json.metric(key + ".plan_s", r.plan_s);
  json.metric(key + ".select_eval_s", r.select_eval_s);
  json.metric(key + ".eval_only_s", r.eval_only_s);
  const double plan_share =
      r.first_call_s > 0.0 ? r.plan_s / r.first_call_s : 0.0;
  json.metric(key + ".plan_share_of_first_call", plan_share);
  const double rss = peak_rss_mb();
  json.metric(key + ".peak_rss_mb", rss);
  table.add_row({key, std::to_string(net.num_gates()), fmt(r.first_call_s, 3),
                 fmt(r.plan_s, 3), fmt(r.select_eval_s, 3),
                 fmt(r.eval_only_s, 3), fmt(100.0 * plan_share, 1) + "%",
                 fmt(rss, 0)});
}

}  // namespace
}  // namespace protest

int main(int argc, char** argv) {
  using namespace protest;

  bool quick = false;
  double max_select_eval_10k = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--max-select-eval-10k") == 0 &&
               i + 1 < argc) {
      max_select_eval_10k = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--max-select-eval-10k SECONDS]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header("PROTEST estimator scaling on the stress ladder");
  bench::BenchJson json("protest_scaling");
  bench::record_machine(json);
  json.metric("quick", quick ? 1.0 : 0.0);

  TextTable table({"rung", "gates", "first call (s)", "plan (s)",
                   "select+eval (s)", "eval-only (s)", "plan share",
                   "peak RSS (MB)"});
  std::vector<std::size_t> rungs = {1'000, 5'000, 10'000};
  if (!quick) rungs.push_back(20'000);
  const int reps = quick ? 1 : 3;
  double select_eval_10k = 0.0;
  for (std::size_t gates : rungs) {
    const Netlist net = make_random_circuit(stress_circuit_params(gates));
    const Rung r = measure(net, reps);
    record(json, table, "stress" + std::to_string(gates / 1000) + "k", net, r);
    if (gates == 10'000) select_eval_10k = r.select_eval_s;
    std::printf("stress%zuk done\n", gates / 1000);
    std::fflush(stdout);
  }
  std::printf("\n%s", table.str().c_str());
  json.write();

  if (max_select_eval_10k > 0.0 && select_eval_10k > max_select_eval_10k) {
    std::fprintf(stderr,
                 "FAIL: 10k-rung select+eval %.3f s above floor %.3f s\n",
                 select_eval_10k, max_select_eval_10k);
    return 1;
  }
  return 0;
}
