#include "sim/fault_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "netlist/compiled.hpp"
#include "sim/word_sim.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"

namespace protest {

double FaultSimResult::coverage() const {
  if (first_detect.empty()) return 1.0;
  std::size_t det = 0;
  for (std::int64_t f : first_detect) det += f >= 0;
  return static_cast<double>(det) / static_cast<double>(first_detect.size());
}

double FaultSimResult::coverage_at(std::size_t n) const {
  if (first_detect.empty()) return 1.0;
  std::size_t det = 0;
  for (std::int64_t f : first_detect)
    det += f >= 0 && static_cast<std::size_t>(f) < n;
  return static_cast<double>(det) / static_cast<double>(first_detect.size());
}

std::vector<double> FaultSimResult::detection_probs() const {
  std::vector<double> p(detect_count.size());
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<double>(detect_count[i]) /
           static_cast<double>(num_patterns);
  return p;
}

namespace {

/// W-word evaluation of one gate of type `t` with `arity` fanins, where
/// in(k) points at the W words of fanin k.  W is a compile-time width, so
/// the word loops unroll.
template <std::size_t W, class In>
void eval_words(GateType t, std::size_t arity, const In& in,
                std::uint64_t* out) {
  const auto fold = [&](auto op) {
    const std::uint64_t* a = in(0);
    for (std::size_t w = 0; w < W; ++w) out[w] = a[w];
    for (std::size_t k = 1; k < arity; ++k) {
      const std::uint64_t* b = in(k);
      for (std::size_t w = 0; w < W; ++w) out[w] = op(out[w], b[w]);
    }
  };
  const auto invert = [&] {
    for (std::size_t w = 0; w < W; ++w) out[w] = ~out[w];
  };
  const auto op_and = [](std::uint64_t x, std::uint64_t y) { return x & y; };
  const auto op_or = [](std::uint64_t x, std::uint64_t y) { return x | y; };
  const auto op_xor = [](std::uint64_t x, std::uint64_t y) { return x ^ y; };
  switch (t) {
    case GateType::Input:
      throw std::logic_error("simulate_faults: primary input has no function");
    case GateType::Const0:
    case GateType::Const1:
      std::fill_n(out, W, t == GateType::Const1 ? ~std::uint64_t{0} : 0);
      return;
    case GateType::Buf: fold(op_and); return;
    case GateType::Not: fold(op_and); invert(); return;
    case GateType::And: fold(op_and); return;
    case GateType::Nand: fold(op_and); invert(); return;
    case GateType::Or: fold(op_or); return;
    case GateType::Nor: fold(op_or); invert(); return;
    case GateType::Xor: fold(op_xor); return;
    case GateType::Xnor: fold(op_xor); invert(); return;
  }
  throw std::logic_error("simulate_faults: unknown gate type");
}

/// Per node, the stem of its fanout-free region: the node itself when it
/// is a primary output or has fanout != 1 (a gate that takes the node on
/// two pins lists it twice, so that node is a stem too), otherwise its
/// single successor's stem.  Node ids are topological, so one reverse pass
/// settles every node.
std::vector<NodeId> region_stems(const Netlist& net) {
  std::vector<NodeId> stem_of(net.size());
  for (NodeId n = static_cast<NodeId>(net.size()); n-- > 0;) {
    const std::span<const NodeId> fo = net.fanout(n);
    stem_of[n] = net.is_output(n) || fo.size() != 1 ? n : stem_of[fo[0]];
  }
  return stem_of;
}

/// Fault f's difference words at `stem`: its faulty site value against the
/// good machine (node-major, W words per node), masked to the valid
/// patterns, then carried up the single-fanout chain to the stem.  Every
/// other fanin of a chain gate is outside the fault's cone, so it reads the
/// good machine.  Stops early, all zero, once every bit has died.
template <std::size_t W>
void stem_difference(const Netlist& net, const CompiledNetlist& cn,
                     const Fault& f, NodeId stem, const std::uint64_t* good,
                     const std::uint64_t* mask, std::uint64_t* d) {
  std::array<std::uint64_t, W> faulty, out;
  faulty.fill(f.sa == StuckAt::One ? ~std::uint64_t{0} : 0);
  NodeId n = f.node;
  if (!f.is_stem()) {
    const std::span<const NodeId> fanin = cn.fanin(n);
    const std::array<std::uint64_t, W> forced = faulty;
    eval_words<W>(
        cn.type(n), fanin.size(),
        [&](std::size_t k) {
          return static_cast<int>(k) == f.pin
                     ? forced.data()
                     : good + std::size_t{fanin[k]} * W;
        },
        faulty.data());
  }
  std::uint64_t live = 0;
  for (std::size_t w = 0; w < W; ++w) {
    d[w] = (faulty[w] ^ good[std::size_t{n} * W + w]) & mask[w];
    live |= d[w];
  }
  while (live != 0 && n != stem) {
    const NodeId next = net.fanout(n)[0];
    for (std::size_t w = 0; w < W; ++w)
      faulty[w] = good[std::size_t{n} * W + w] ^ d[w];
    const std::span<const NodeId> fanin = cn.fanin(next);
    eval_words<W>(
        cn.type(next), fanin.size(),
        [&](std::size_t k) {
          return fanin[k] == n ? faulty.data()
                               : good + std::size_t{fanin[k]} * W;
        },
        out.data());
    live = 0;
    for (std::size_t w = 0; w < W; ++w) {
      d[w] = out[w] ^ good[std::size_t{next} * W + w];
      live |= d[w];
    }
    n = next;
  }
}

/// One worker's stem propagation state, on cache lines of its own (its
/// epoch and heap end change on every event; see SweepScratch in
/// fault_analyze.cpp).  A propagation stores W words only for the nodes
/// whose faulty value differs from the good one, and every other node reads
/// the good machine, so the value store grows with the nodes a flip
/// reaches, not with the netlist.  Fanin/type lookups ride the compiled
/// columnar view.
template <std::size_t W>
class alignas(64) StemWorker {
 public:
  explicit StemWorker(const Netlist& net)
      : net_(net),
        cn_(net.compiled()),
        stamp_(net.size(), 0),
        queued_(net.size(), 0),
        slot_(net.size(), 0) {}

  /// Flips stem s in the patterns set in `flip` over the good machine
  /// `good` and writes to `obs` the OR over primary outputs of
  /// (good ^ faulty).
  void propagate(NodeId s, const std::uint64_t* flip,
                 const std::uint64_t* good, std::uint64_t* obs) {
    ++epoch_;
    vals_.clear();
    heap_.clear();
    std::array<std::uint64_t, W> v;
    const bool po = net_.is_output(s);
    for (std::size_t w = 0; w < W; ++w) {
      v[w] = good[std::size_t{s} * W + w] ^ flip[w];
      obs[w] = po ? flip[w] : 0;
    }
    store(s, v);
    push_fanouts(s);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const NodeId n = heap_.back();
      heap_.pop_back();
      const std::span<const NodeId> fanin = cn_.fanin(n);
      eval_words<W>(
          cn_.type(n), fanin.size(),
          [&](std::size_t k) { return value(fanin[k], good); }, v.data());
      const std::uint64_t* g = good + std::size_t{n} * W;
      std::uint64_t diff = 0;
      for (std::size_t w = 0; w < W; ++w) diff |= v[w] ^ g[w];
      if (diff == 0) continue;
      store(n, v);
      if (net_.is_output(n))
        for (std::size_t w = 0; w < W; ++w) obs[w] |= v[w] ^ g[w];
      push_fanouts(n);
    }
  }

  /// Scratch for the caller: the stem differences of one group's faults.
  std::vector<std::uint64_t> diffs;

 private:
  const std::uint64_t* value(NodeId n, const std::uint64_t* good) const {
    return stamp_[n] == epoch_ ? vals_.data() + std::size_t{slot_[n]} * W
                               : good + std::size_t{n} * W;
  }

  void store(NodeId n, const std::array<std::uint64_t, W>& v) {
    stamp_[n] = epoch_;
    slot_[n] = static_cast<std::uint32_t>(vals_.size() / W);
    vals_.insert(vals_.end(), v.begin(), v.end());
  }

  void push_fanouts(NodeId n) {
    for (NodeId s : net_.fanout(n)) {
      if (queued_[s] == epoch_) continue;
      queued_[s] = epoch_;
      heap_.push_back(s);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  }

  const Netlist& net_;
  const CompiledNetlist& cn_;
  // The epoch advances once per (stem, window) propagation; 64-bit stamps
  // cannot wrap in practice, where a 32-bit one could on a long run and
  // then match stale stamps.
  std::vector<std::uint64_t> stamp_;   ///< node's value is in vals_
  std::vector<std::uint64_t> queued_;  ///< node is on the heap
  std::vector<std::uint32_t> slot_;    ///< node's W words in vals_
  std::vector<std::uint64_t> vals_;
  std::vector<NodeId> heap_;  // min-heap on node id == topological order
  std::uint64_t epoch_ = 0;
};

/// Live faults per task of the parallel stem loop, at least (a task takes
/// whole stem groups; see kFaultChunk in fault_analyze.cpp).
constexpr std::size_t kFaultChunk = 64;
/// Good-machine words kept per node and event: the widest specialised
/// WordSimulator width, but no more than this many words in all over the
/// netlist (a netlist too large for even one word per node still gets 1).
constexpr std::size_t kWindowWords = std::size_t{1} << 20;
constexpr std::size_t kMaxEventWords = 16;

/// The window loop at W words per event over blocks [b_begin, b_end);
/// `live` holds the faults to simulate, grouped by stem (stem_of their
/// site node), and keeps the undropped ones.  See simulate_impl.
template <std::size_t W>
void simulate_stems(const Netlist& net, std::span<const Fault> faults,
                    const PatternSet& ps, const std::vector<NodeId>& stem_of,
                    std::size_t b_begin, std::size_t b_end,
                    std::vector<std::size_t>& live, const ParallelConfig& par,
                    FaultSimResult& res) {
  const CompiledNetlist& cn = net.compiled();
  const bool count = !res.detect_count.empty();
  const auto stem = [&](std::size_t li) {
    return stem_of[faults[live[li]].node];
  };
  WordSimulator good_sim(net, W);
  std::vector<std::optional<StemWorker<W>>> workers(par.resolved());
  std::vector<char> dropped;        // parallel to `live`, FirstDetection
  std::vector<std::size_t> groups;  // first live index of each stem group
  std::vector<std::size_t> tasks;   // first group of each task

  for (std::size_t b0 = b_begin; b0 < b_end && !live.empty(); b0 += W) {
    const std::size_t nb = std::min(W, b_end - b0);
    const std::uint64_t* good = good_sim.run_blocks(ps, b0, nb).data();
    std::array<std::uint64_t, W> mask{};  // words past the set stay 0
    for (std::size_t k = 0; k < nb; ++k) mask[k] = ps.valid_mask(b0 + k);

    groups.clear();
    tasks.clear();
    for (std::size_t li = 0; li < live.size(); ++li) {
      if (li > 0 && stem(li) == stem(li - 1)) continue;
      if (tasks.empty() || li - groups[tasks.back()] >= kFaultChunk)
        tasks.push_back(groups.size());
      groups.push_back(li);
    }
    tasks.push_back(groups.size());
    groups.push_back(live.size());

    dropped.assign(live.size(), 0);
    run_tasks(par, tasks.size() - 1, [&](std::size_t t, unsigned wk) {
      check_cancelled();
      if (!workers[wk]) workers[wk].emplace(net);
      StemWorker<W>& sw = *workers[wk];
      for (std::size_t g = tasks[t]; g < tasks[t + 1]; ++g) {
        const std::size_t lb = groups[g], le = groups[g + 1];
        const NodeId s = stem(lb);
        sw.diffs.resize((le - lb) * W);
        std::array<std::uint64_t, W> need{};
        std::uint64_t any = 0;
        for (std::size_t li = lb; li < le; ++li) {
          std::uint64_t* d = sw.diffs.data() + (li - lb) * W;
          stem_difference<W>(net, cn, faults[live[li]], s, good, mask.data(),
                             d);
          for (std::size_t w = 0; w < W; ++w) {
            need[w] |= d[w];
            any |= d[w];
          }
        }
        if (any == 0) continue;
        std::array<std::uint64_t, W> obs;
        sw.propagate(s, need.data(), good, obs.data());
        for (std::size_t li = lb; li < le; ++li) {
          const std::size_t fi = live[li];
          const std::uint64_t* d = sw.diffs.data() + (li - lb) * W;
          for (std::size_t w = 0; w < W; ++w) {
            const std::uint64_t det = d[w] & obs[w];
            if (det == 0) continue;
            if (res.first_detect[fi] < 0)
              res.first_detect[fi] = static_cast<std::int64_t>(
                  (b0 + w) * 64 + std::countr_zero(det));
            if (!count) {
              dropped[li] = 1;  // fault dropping: first detection suffices
              break;
            }
            res.detect_count[fi] +=
                static_cast<std::uint64_t>(std::popcount(det));
          }
        }
      }
    });

    if (!count) {
      std::size_t kept = 0;
      for (std::size_t li = 0; li < live.size(); ++li)
        if (!dropped[li]) live[kept++] = live[li];
      live.resize(kept);
    }
  }
}

/// Shared engine: `fa` non-null prunes proven-undetectable faults from the
/// live list up front (their zero results are exact by proof).  Groups the
/// live faults by stem with a stable counting sort (stem order, then fault
/// order), picks the event width W and runs the window loop.
FaultSimResult simulate_impl(const Netlist& net, std::span<const Fault> faults,
                             const PatternSet& ps, FaultSimMode mode,
                             const FaultAnalysis* fa,
                             const ParallelConfig& parallel) {
  if (!net.finalized())
    throw std::logic_error("simulate_faults: netlist must be finalized");

  FaultSimResult res;
  res.num_patterns = ps.num_patterns();
  res.first_detect.assign(faults.size(), -1);
  if (mode == FaultSimMode::CountDetections)
    res.detect_count.assign(faults.size(), 0);

  const std::size_t nodes = net.size();
  const std::vector<NodeId> stem_of = region_stems(net);
  const auto simulated = [&](std::size_t i) {
    return !fa || fa->bounds[i].verdict != FaultClass::ProvenUndetectable;
  };
  std::vector<std::size_t> start(nodes + 1, 0);
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (simulated(i)) ++start[stem_of[faults[i].node] + 1];
  for (std::size_t n = 0; n < nodes; ++n) start[n + 1] += start[n];
  std::vector<std::size_t> live(start[nodes]);
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (simulated(i)) live[start[stem_of[faults[i].node]]++] = i;
  if (live.empty()) return res;

  const std::size_t words = std::min(
      {kMaxEventWords,
       std::bit_floor(std::max<std::size_t>(
           kWindowWords / std::max<std::size_t>(nodes, 1), 1)),
       std::bit_ceil(std::max<std::size_t>(ps.num_blocks(), 1))});
  using WindowLoop = void (*)(
      const Netlist&, std::span<const Fault>, const PatternSet&,
      const std::vector<NodeId>&, std::size_t, std::size_t,
      std::vector<std::size_t>&, const ParallelConfig&, FaultSimResult&);
  constexpr WindowLoop kLoops[] = {simulate_stems<1>, simulate_stems<2>,
                                   simulate_stems<4>, simulate_stems<8>,
                                   simulate_stems<16>};
  // One executor for every window; its pool is spawned on the first
  // window with more than one task, never for a serial config.
  ParallelConfig par = parallel;
  par.executor = make_executor(parallel);
  const std::size_t blocks = ps.num_blocks();
  std::size_t b = 0;
  // FirstDetection ramps the window up from one block: a stem pays for
  // its whole window, and most detectable faults drop in the first blocks.
  if (mode == FaultSimMode::FirstDetection)
    for (std::size_t w = 1; w < words && b < blocks; b += w, w *= 2)
      kLoops[std::countr_zero(w)](net, faults, ps, stem_of, b,
                                  std::min(b + w, blocks), live, par, res);
  kLoops[std::countr_zero(words)](net, faults, ps, stem_of, b, blocks, live,
                                  par, res);
  return res;
}

}  // namespace

FaultSimResult simulate_faults(const Netlist& net,
                               std::span<const Fault> faults,
                               const PatternSet& ps, FaultSimMode mode,
                               const ParallelConfig& parallel) {
  return simulate_impl(net, faults, ps, mode, nullptr, parallel);
}

FaultSimResult simulate_faults_pruned(const Netlist& net,
                                      std::span<const Fault> faults,
                                      const PatternSet& ps, FaultSimMode mode,
                                      const FaultAnalysis& fa,
                                      const ParallelConfig& parallel) {
  if (fa.bounds.size() != faults.size())
    throw std::invalid_argument(
        "simulate_faults_pruned: fault list and analysis size mismatch");
  FaultSimResult res = simulate_impl(net, faults, ps, mode, &fa, parallel);

  // The static intervals are sound by construction, so an empirical
  // detection probability beyond worst-case sampling noise is proof of a
  // bug in one of the two layers — fail loudly, never average it away.
  if (mode == FaultSimMode::CountDetections && res.num_patterns > 0) {
    const double n = static_cast<double>(res.num_patterns);
    const double slack = 6.0 * 0.5 / std::sqrt(n);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const FaultBound& b = fa.bounds[i];
      if (b.verdict == FaultClass::ProvenUndetectable) continue;
      const double p = static_cast<double>(res.detect_count[i]) / n;
      if (p < b.lo - slack || p > b.hi + slack)
        throw std::logic_error(
            "simulate_faults_pruned: empirical detection probability " +
            std::to_string(p) + " of fault " + to_string(net, faults[i]) +
            " falls outside its static interval [" + std::to_string(b.lo) +
            ", " + std::to_string(b.hi) + "] by more than 6 sigma — " +
            "the simulator or the static fault analyzer is broken");
    }
  }
  return res;
}

}  // namespace protest
