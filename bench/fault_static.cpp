// Static fault analysis on the stress tier: what fraction of the
// collapsed fault list the analyzer settles without simulating a single
// pattern, what it costs, and how much the proven-undetectable prune
// saves the fault simulator.
//
// The stress family is genuinely redundancy-rich (random gate soup breeds
// constant nodes and blocked cones), so the prune is measured directly on
// it: plain vs pruned FirstDetection runs — never-detected faults stay
// live through every pattern block in the plain run, which is exactly the
// cost the static proof removes.
//
// Emits BENCH_fault_static.json.  Exits nonzero if the analysis is caught
// lying: a proven-undetectable fault the plain simulator detects, a
// pruned run whose first-detect disagrees with the plain run anywhere
// else, or a CountDetections estimate outside its static interval
// (simulate_faults_pruned's built-in 6-sigma oracle).  Optional
// --min-settled / --min-speedup floors serve as CI regression guards.
//
// Constant learning, the analysis, the pruned FirstDetection run and the
// grading simulation (CountDetections at 1024 patterns on the two 5k-gate
// stress netlists, structure seeds 1 and 2, as the fault-grade benchmark
// workload runs it) are each timed serially (1 thread) and on every
// hardware thread: learning speculates across workers, the analysis
// partitions the fault list and the simulations partition the fanout-free
// region stems.  The two runs of each must agree bit for bit, and
// --min-thread-speedup floors the threaded speed-up of each.  The floor is
// skipped (and says so) on a machine with one hardware thread.
//
// Timing protocol: every hardware thread first spins on a throwaway pool
// (on some virtual machines a process's first pool shares one CPU for its
// first second or so), then every layer reports the best of `reps` runs.
// The bench pins no thread; the machine record (hardware threads,
// physical cores, the inherited affinity mask, CPU, compiler, build type,
// commit) goes into the JSON next to the numbers.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "circuits/random_circuit.hpp"
#include "lint/fault_analyze.hpp"
#include "lint/implication.hpp"
#include "sim/fault_sim.hpp"
#include "util/executor.hpp"

namespace protest {
namespace {

/// Best-of-`reps` wall time of `f` (min damps scheduler noise).
template <typename F>
double best_seconds(int reps, F&& f) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, bench::time_seconds(f));
  return best;
}

/// Keeps `threads` workers busy for ~0.3 s each on a pool of their own.
void warm_up_cpus(unsigned threads) {
  Executor(threads).parallel_for(threads, [](std::size_t, unsigned) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (std::chrono::steady_clock::now() < until) {
    }
  });
}

ParallelConfig threads_config(unsigned threads) {
  ParallelConfig pc;
  pc.num_threads = threads;
  return pc;
}

bool same_analysis(const FaultAnalysis& a, const FaultAnalysis& b) {
  if (a.bounds.size() != b.bounds.size() || a.undetectable != b.undetectable ||
      a.detectable != b.detectable || a.uncertain != b.uncertain ||
      a.frechet_widened != b.frechet_widened)
    return false;
  for (std::size_t i = 0; i < a.bounds.size(); ++i)
    if (a.bounds[i].lo != b.bounds[i].lo || a.bounds[i].hi != b.bounds[i].hi ||
        a.bounds[i].verdict != b.bounds[i].verdict)
      return false;
  return true;
}

}  // namespace
}  // namespace protest

int main(int argc, char** argv) {
  using namespace protest;

  bool quick = false;
  double min_settled = 0.0;
  double min_speedup = 0.0;
  double min_thread_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--min-settled") == 0 && i + 1 < argc) {
      min_settled = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-thread-speedup") == 0 &&
               i + 1 < argc) {
      min_thread_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--min-settled X] [--min-speedup X] "
                   "[--min-thread-speedup X]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header("static fault analysis: settlement and sim pruning");
  bench::BenchJson json("fault_static");
  json.metric("quick", quick ? 1.0 : 0.0);
  bench::record_machine(json);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  json.metric("threads", threads);
  const int reps = quick ? 3 : 2;
  json.metric("reps", reps);
  warm_up_cpus(threads);

  const std::size_t num_gates = quick ? 10'000 : 100'000;
  const Netlist net = make_random_circuit(stress_circuit_params(num_gates));
  const std::vector<Fault> faults = collapsed_fault_list(net);
  std::printf("\ncircuit: %zu inputs, %zu gates; %zu collapsed faults\n",
              net.inputs().size(), net.num_gates(), faults.size());
  json.metric("circuit.gates", static_cast<double>(net.num_gates()));
  json.metric("circuit.faults", static_cast<double>(faults.size()));

  // --- constant learning ----------------------------------------------------
  // The implication engine's pass alone (analyze_faults runs it first).
  ImplicationStats learn_serial_stats, learn_stats;
  std::vector<signed char> learned_serial, learned;
  const double t_learn_serial = best_seconds(reps, [&] {
    learned_serial =
        learn_constants(net, {}, &learn_serial_stats, threads_config(1));
  });
  const double t_learn = best_seconds(reps, [&] {
    learned = learn_constants(net, {}, &learn_stats, threads_config(threads));
  });
  const double learn_thread_speedup =
      t_learn > 0.0 ? t_learn_serial / t_learn : 0.0;
  const bool learn_identical =
      learned == learned_serial &&
      learn_stats.assumptions == learn_serial_stats.assumptions &&
      learn_stats.implications == learn_serial_stats.implications &&
      learn_stats.conflicts == learn_serial_stats.conflicts &&
      learn_stats.learned == learn_serial_stats.learned;
  json.metric("learn.serial_seconds", t_learn_serial);
  json.metric("learn.threaded_seconds", t_learn);
  json.metric("learn.thread_speedup", learn_thread_speedup);
  json.metric("learn.assumptions", static_cast<double>(learn_stats.assumptions));
  std::printf(
      "constant learning: serial %.2fs, %u threads %.2fs (%.2fx, %s), %zu "
      "learned\n",
      t_learn_serial, threads, t_learn, learn_thread_speedup,
      learn_identical ? "bit-identical" : "DIFFERENT", learn_stats.learned);

  // --- static settlement ----------------------------------------------------
  FaultAnalysis fa, fa_serial;
  FaultAnalyzeOptions serial_opts, threaded_opts;
  serial_opts.parallel = threads_config(1);
  threaded_opts.parallel = threads_config(threads);
  const double t_analyze_serial = best_seconds(
      reps, [&] { fa_serial = analyze_faults(net, faults, serial_opts); });
  const double t_analyze = best_seconds(
      reps, [&] { fa = analyze_faults(net, faults, threaded_opts); });
  const double analyze_thread_speedup =
      t_analyze > 0.0 ? t_analyze_serial / t_analyze : 0.0;
  const bool analyze_identical = same_analysis(fa_serial, fa);
  json.metric("analyze.serial_seconds", t_analyze_serial);
  json.metric("analyze.threaded_seconds", t_analyze);
  json.metric("analyze.thread_speedup", analyze_thread_speedup);
  json.metric("analyze.faults_per_sec",
              t_analyze > 0.0 ? static_cast<double>(faults.size()) / t_analyze
                              : 0.0);
  json.metric("analyze.settled_fraction", fa.settled_fraction());
  json.metric("analyze.proven_undetectable",
              static_cast<double>(fa.undetectable));
  json.metric("analyze.unexcitable", static_cast<double>(fa.unexcitable));
  json.metric("analyze.unobservable", static_cast<double>(fa.unobservable));
  json.metric("analyze.proven_detectable", static_cast<double>(fa.detectable));
  json.metric("analyze.uncertain", static_cast<double>(fa.uncertain));
  json.metric("analyze.truncated_sweeps",
              static_cast<double>(fa.truncated_sweeps));
  json.metric("analyze.learned_constants",
              static_cast<double>(fa.learned_constants));
  TextTable census({"class", "faults", "fraction"});
  const auto frac = [&](std::size_t n) {
    return fmt(static_cast<double>(n) / static_cast<double>(faults.size()), 3);
  };
  census.add_row({"proven undetectable", fmt_int(fa.undetectable),
                  frac(fa.undetectable)});
  census.add_row({"  unexcitable", fmt_int(fa.unexcitable),
                  frac(fa.unexcitable)});
  census.add_row({"  unobservable", fmt_int(fa.unobservable),
                  frac(fa.unobservable)});
  census.add_row({"proven detectable", fmt_int(fa.detectable),
                  frac(fa.detectable)});
  census.add_row({"uncertain", fmt_int(fa.uncertain), frac(fa.uncertain)});
  std::printf("%s", census.str().c_str());
  std::printf(
      "analysis: serial %.2fs, %u threads %.2fs (%.2fx, %s), settled "
      "statically: %.1f %%\n",
      t_analyze_serial, threads, t_analyze, analyze_thread_speedup,
      analyze_identical ? "bit-identical" : "DIFFERENT",
      100.0 * fa.settled_fraction());

  // --- fault-sim pruning ----------------------------------------------------
  const std::size_t num_patterns = quick ? 4096 : 16384;
  const PatternSet ps =
      PatternSet::random(net.inputs().size(), num_patterns, /*seed=*/1985);
  json.metric("fault_sim.patterns", static_cast<double>(num_patterns));
  // The pruning speed-up compares serial runs, so it measures the prune
  // alone; the thread speed-up compares the pruned run serial vs threaded.
  FaultSimResult plain, pruned, pruned_threaded;
  const ParallelConfig serial = threads_config(1);
  const ParallelConfig all = threads_config(threads);
  const double t_plain = best_seconds(reps, [&] {
    plain =
        simulate_faults(net, faults, ps, FaultSimMode::FirstDetection, serial);
  });
  const double t_pruned = best_seconds(reps, [&] {
    pruned = simulate_faults_pruned(net, faults, ps,
                                    FaultSimMode::FirstDetection, fa, serial);
  });
  const double t_pruned_threaded = best_seconds(reps, [&] {
    pruned_threaded = simulate_faults_pruned(
        net, faults, ps, FaultSimMode::FirstDetection, fa, all);
  });
  const double speedup = t_pruned > 0.0 ? t_plain / t_pruned : 0.0;
  const double sim_thread_speedup =
      t_pruned_threaded > 0.0 ? t_pruned / t_pruned_threaded : 0.0;
  const bool sim_identical =
      pruned_threaded.first_detect == pruned.first_detect;
  json.metric("fault_sim.plain_seconds", t_plain);
  json.metric("fault_sim.pruned_seconds", t_pruned);
  json.metric("fault_sim.pruning_speedup", speedup);
  json.metric("fault_sim.pruned_threaded_seconds", t_pruned_threaded);
  json.metric("fault_sim.thread_speedup", sim_thread_speedup);
  json.metric("fault_sim.coverage", plain.coverage());
  std::printf(
      "serial first-detection sim over %zu patterns: plain %.3fs, pruned "
      "%.3fs (%.2fx), coverage %.3f\n",
      num_patterns, t_plain, t_pruned, speedup, plain.coverage());
  std::printf("pruned sim: serial %.3fs, %u threads %.3fs (%.2fx, %s)\n",
              t_pruned, threads, t_pruned_threaded, sim_thread_speedup,
              sim_identical ? "bit-identical" : "DIFFERENT");

  // --- grading simulation ---------------------------------------------------
  // The simulation of a fault-grade request: CountDetections at 1024
  // patterns, pruned by the netlist's own analysis (built untimed).
  double t_grade_serial = 0.0, t_grade = 0.0;
  std::size_t grade_faults = 0;
  bool grade_identical = true;
  for (const std::uint64_t seed : {1u, 2u}) {
    const Netlist gnet = make_random_circuit(stress_circuit_params(5000, seed));
    const std::vector<Fault> gfaults = collapsed_fault_list(gnet);
    const FaultAnalysis gfa = analyze_faults(gnet, gfaults, threaded_opts);
    const PatternSet gps =
        PatternSet::random(gnet.inputs().size(), 1024, /*seed=*/seed);
    FaultSimResult gs_serial, gs;
    t_grade_serial += best_seconds(reps, [&] {
      gs_serial = simulate_faults_pruned(
          gnet, gfaults, gps, FaultSimMode::CountDetections, gfa, serial);
    });
    t_grade += best_seconds(reps, [&] {
      gs = simulate_faults_pruned(gnet, gfaults, gps,
                                  FaultSimMode::CountDetections, gfa, all);
    });
    grade_identical = grade_identical &&
                      gs.detect_count == gs_serial.detect_count &&
                      gs.first_detect == gs_serial.first_detect;
    grade_faults += gfaults.size();
  }
  const double grade_thread_speedup =
      t_grade > 0.0 ? t_grade_serial / t_grade : 0.0;
  json.metric("grade_sim.faults", static_cast<double>(grade_faults));
  json.metric("grade_sim.serial_seconds", t_grade_serial);
  json.metric("grade_sim.threaded_seconds", t_grade);
  json.metric("grade_sim.thread_speedup", grade_thread_speedup);
  std::printf(
      "grading sim (2 x 5k gates, %zu faults, 1024 patterns, count mode): "
      "serial %.3fs, %u threads %.3fs (%.2fx, %s)\n",
      grade_faults, t_grade_serial, threads, t_grade, grade_thread_speedup,
      grade_identical ? "bit-identical" : "DIFFERENT");

  // --- soundness gates ------------------------------------------------------
  // 1. The plain simulator must agree fault-by-fault: proven-undetectable
  //    faults are never detected, everything else is bit-identical.
  std::size_t contradicted = 0, mismatched = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (fa.bounds[i].verdict == FaultClass::ProvenUndetectable) {
      if (plain.first_detect[i] >= 0) ++contradicted;
    } else if (plain.first_detect[i] != pruned.first_detect[i]) {
      ++mismatched;
    }
  }
  json.metric("soundness.undetectable_contradicted",
              static_cast<double>(contradicted));
  json.metric("soundness.first_detect_mismatches",
              static_cast<double>(mismatched));
  const bool threads_identical =
      learn_identical && analyze_identical && sim_identical && grade_identical;
  json.metric("soundness.threads_identical", threads_identical ? 1.0 : 0.0);

  // 2. The 6-sigma interval oracle on a CountDetections run (a subset
  //    keeps the quadratic-ish count mode affordable at full size).
  const std::size_t subset = std::min<std::size_t>(faults.size(), 20'000);
  const std::span<const Fault> sub_faults =
      std::span<const Fault>(faults).first(subset);
  FaultAnalysis sub_fa;
  sub_fa.bounds.assign(fa.bounds.begin(),
                       fa.bounds.begin() + static_cast<std::ptrdiff_t>(subset));
  const PatternSet count_ps =
      PatternSet::random(net.inputs().size(), quick ? 1024 : 2048, 7);
  bool oracle_ok = true;
  std::string oracle_msg;
  try {
    simulate_faults_pruned(net, sub_faults, count_ps,
                           FaultSimMode::CountDetections, sub_fa, all);
  } catch (const std::exception& e) {
    oracle_ok = false;
    oracle_msg = e.what();
  }
  json.metric("soundness.interval_oracle_ok", oracle_ok ? 1.0 : 0.0);
  std::printf("soundness: %zu contradicted, %zu mismatched, oracle %s\n",
              contradicted, mismatched, oracle_ok ? "PASS" : "FAIL");

  json.write();

  if (contradicted != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu proven-undetectable fault(s) detected by the "
                 "plain simulator\n",
                 contradicted);
    return 1;
  }
  if (mismatched != 0) {
    std::fprintf(stderr,
                 "FAIL: pruned first-detect diverges from plain on %zu "
                 "fault(s)\n",
                 mismatched);
    return 1;
  }
  if (!threads_identical) {
    std::fprintf(stderr,
                 "FAIL: the %u-thread run differs from the serial run "
                 "(learning %s, analysis %s, pruned simulation %s, grading "
                 "simulation %s)\n",
                 threads, learn_identical ? "same" : "differs",
                 analyze_identical ? "same" : "differs",
                 sim_identical ? "same" : "differs",
                 grade_identical ? "same" : "differs");
    return 1;
  }
  if (!oracle_ok) {
    std::fprintf(stderr, "FAIL: interval oracle: %s\n", oracle_msg.c_str());
    return 1;
  }
  if (min_settled > 0.0 && fa.settled_fraction() < min_settled) {
    std::fprintf(stderr, "FAIL: settled fraction %.3f below floor %.3f\n",
                 fa.settled_fraction(), min_settled);
    return 1;
  }
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: pruning speedup %.2fx below floor %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  if (min_thread_speedup > 0.0) {
    if (threads < 2) {
      std::printf("thread-speedup floor skipped: one hardware thread\n");
    } else if (learn_thread_speedup < min_thread_speedup ||
               analyze_thread_speedup < min_thread_speedup ||
               sim_thread_speedup < min_thread_speedup ||
               grade_thread_speedup < min_thread_speedup) {
      std::fprintf(stderr,
                   "FAIL: %u-thread speed-up (learning %.2fx, analysis "
                   "%.2fx, pruned sim %.2fx, grading sim %.2fx) below floor "
                   "%.2fx\n",
                   threads, learn_thread_speedup, analyze_thread_speedup,
                   sim_thread_speedup, grade_thread_speedup,
                   min_thread_speedup);
      return 1;
    }
  }
  return 0;
}
