// The session-oriented analysis API: request/response artifacts, the
// tuple cache, the incremental perturb() path, and JSON serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "analysis/json.hpp"
#include "circuits/iscas.hpp"
#include "circuits/zoo.hpp"
#include "netlist/bench_io.hpp"
#include "protest/session.hpp"

namespace protest {
namespace {

InputProbs varied_tuple(const Netlist& net, double base) {
  InputProbs t = uniform_input_probs(net, base);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = 0.1 + 0.05 * static_cast<double>(i % 16);
  return t;
}

TEST(AnalysisSession, RepeatedTupleIsACacheHit) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const InputProbs ip = uniform_input_probs(net, 0.5);
  const AnalysisResult a = session.analyze(ip);
  const AnalysisResult b = session.analyze(ip);
  EXPECT_EQ(session.stats().analyze_calls, 2u);
  EXPECT_EQ(session.stats().cache_hits, 1u);
  EXPECT_EQ(session.stats().full_evals, 1u);
  // Identical vectors — in fact the same shared memoization state.
  EXPECT_EQ(a.signal_probs(), b.signal_probs());
  EXPECT_EQ(&a.signal_probs(), &b.signal_probs());
  EXPECT_EQ(&a.detection_probs(), &b.detection_probs());
}

TEST(AnalysisSession, StatsSerializeToJson) {
  // The wire form behind the daemon's `stats` verb: all counters plus the
  // resident cache occupancy, parseable by the library's own reader.
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const InputProbs ip = uniform_input_probs(net, 0.5);
  const AnalysisResult base = session.analyze(ip);
  session.analyze(ip);             // hit
  session.perturb(base, 0, 0.25);  // incremental route
  session.perturb_screen(base, 0, 0.75);

  const JsonValue doc = parse_json(session.stats().to_json(0));
  EXPECT_EQ(doc.at("analyze_calls").as_number(), 2.0);
  EXPECT_EQ(doc.at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(doc.at("cache_misses").as_number(), 1.0);
  EXPECT_EQ(doc.at("incremental_evals").as_number(), 1.0);
  EXPECT_EQ(doc.at("screen_evals").as_number(), 1.0);
  EXPECT_EQ(doc.at("full_evals").as_number(), 1.0);
  // Base tuple + exact perturb product are resident; the screened result
  // never enters the cache.
  EXPECT_EQ(doc.at("resident_results").as_number(), 2.0);
}

TEST(AnalysisSession, NearDuplicateTupleTakesTheIncrementalPath) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  InputProbs ip = uniform_input_probs(net, 0.5);
  session.analyze(ip);
  ip[2] = 0.25;  // one coordinate away from the cached tuple
  const AnalysisResult inc = session.analyze(ip);
  EXPECT_EQ(session.stats().incremental_evals, 1u);
  EXPECT_EQ(session.stats().full_evals, 1u);
  // Bit-for-bit what a cold session computes from scratch.
  AnalysisSession cold(net);
  EXPECT_EQ(inc.signal_probs(), cold.analyze(ip).signal_probs());
}

TEST(AnalysisSession, PerturbMatchesFromScratchAnalyze) {
  // Acceptance: perturb() == from-scratch analyze() on the same tuple,
  // bit for bit, on the PROTEST and naive engines.  The ALU has heavy
  // reconvergence, so the PROTEST conditioning path is fully exercised.
  const Netlist net = make_circuit("alu");
  for (const char* engine : {"protest", "naive"}) {
    SessionOptions opts;
    opts.engine = engine;
    AnalysisSession session(net, opts);
    const AnalysisResult base = session.analyze(varied_tuple(net, 0.5));
    for (std::size_t idx : {std::size_t{0}, net.inputs().size() - 1}) {
      for (double new_p : {0.0625, 0.9375}) {
        const AnalysisResult inc = session.perturb(base, idx, new_p);
        InputProbs perturbed = base.input_probs();
        perturbed[idx] = new_p;
        EXPECT_EQ(inc.input_probs(), perturbed);
        AnalysisSession cold(net, opts);
        const AnalysisResult scratch = cold.analyze(perturbed);
        EXPECT_EQ(inc.signal_probs(), scratch.signal_probs())
            << engine << " input " << idx << " p " << new_p;
        EXPECT_EQ(inc.detection_probs(), scratch.detection_probs())
            << engine << " input " << idx << " p " << new_p;
      }
    }
  }
}

TEST(AnalysisSession, ScreeningPerturbMatchesBatchSemantics) {
  // perturb_screen() freezes the conditioning sets selected at the base
  // tuple — bit-for-bit the engine-level batch semantics anchored there —
  // and must not pollute the exact-fidelity tuple cache.
  const Netlist net = make_circuit("alu");
  AnalysisSession session(net);
  const InputProbs base = varied_tuple(net, 0.5);
  const AnalysisResult base_r = session.analyze(base);
  InputProbs perturbed = base;
  perturbed[3] = 0.8125;

  const AnalysisResult screened = session.perturb_screen(base_r, 3, 0.8125);
  EXPECT_EQ(session.stats().screen_evals, 1u);

  const auto reference = make_engine("protest", net);
  const auto batch = reference->signal_probs_batch(
      std::vector<InputProbs>{base, perturbed});
  EXPECT_EQ(screened.signal_probs(), batch[1]);

  // The exact path disagrees with the frozen screening on a reconvergent
  // circuit (it re-selects), and analyze() must serve the exact value.
  const AnalysisResult exact = session.analyze(perturbed);
  EXPECT_EQ(session.stats().cache_hits, 0u);
  EXPECT_EQ(exact.signal_probs(),
            reference->signal_probs(perturbed));
}

TEST(AnalysisSession, PerturbFallsBackOnNonIncrementalEngines) {
  const Netlist net = make_c17();
  SessionOptions opts;
  opts.engine = "exact-enum";
  AnalysisSession session(net, opts);
  EXPECT_FALSE(session.engine().incremental());
  const AnalysisResult base = session.analyze(uniform_input_probs(net, 0.5));
  const AnalysisResult inc = session.perturb(base, 0, 0.25);
  InputProbs perturbed = uniform_input_probs(net, 0.5);
  perturbed[0] = 0.25;
  AnalysisSession cold(net, opts);
  EXPECT_EQ(inc.signal_probs(), cold.analyze(perturbed).signal_probs());
}

TEST(AnalysisSession, PerturbValidatesItsArguments) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  AnalysisSession other(net);
  const AnalysisResult base = session.analyze(uniform_input_probs(net, 0.5));
  EXPECT_THROW(session.perturb(base, 99, 0.5), std::invalid_argument);
  EXPECT_THROW(session.perturb(base, 0, 1.5), std::invalid_argument);
  EXPECT_THROW(session.perturb(AnalysisResult{}, 0, 0.5),
               std::invalid_argument);
  EXPECT_THROW(other.perturb(base, 0, 0.5), std::invalid_argument);
}

TEST(AnalysisSession, ScreenedResultsCannotSeedPerturbs) {
  // A perturb() chained off a screening result would smuggle
  // frozen-selection numbers into the exact-fidelity tuple cache.
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult base = session.analyze(uniform_input_probs(net, 0.5));
  const AnalysisResult screened = session.perturb_screen(base, 0, 0.25);
  EXPECT_THROW(session.perturb(screened, 1, 0.75), std::invalid_argument);
  EXPECT_THROW(session.perturb_screen(screened, 1, 0.75),
               std::invalid_argument);
}

TEST(AnalysisSession, LazyArtifactsAreMemoized) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult r =
      session.analyze(uniform_input_probs(net, 0.5), AnalysisRequest::minimal());
  const std::vector<double>& pf = r.detection_probs();  // computed on access
  EXPECT_EQ(pf.size(), session.faults().size());
  EXPECT_EQ(&r.detection_probs(), &pf);  // memoized, not recomputed
  EXPECT_EQ(r.observability().stem.size(), net.size());
  EXPECT_EQ(r.scoap().cc0.size(), net.size());
  EXPECT_EQ(r.stafan().c1.size(), net.size());
}

TEST(AnalysisSession, ResultsOutliveTheSessionAndItsCache) {
  const Netlist net = make_c17();
  AnalysisResult r;
  {
    AnalysisSession session(net);
    r = session.analyze(uniform_input_probs(net, 0.5),
                        AnalysisRequest::minimal());
  }
  EXPECT_EQ(r.detection_probs().size(), r.faults().size());
}

TEST(AnalysisSession, CacheRespectsItsBound) {
  const Netlist net = make_c17();
  SessionOptions opts;
  opts.max_cached_results = 2;
  AnalysisSession session(net, opts);
  const InputProbs a = uniform_input_probs(net, 0.1);
  session.analyze(a);
  session.analyze(uniform_input_probs(net, 0.2));
  session.analyze(uniform_input_probs(net, 0.3));  // evicts the 0.1 tuple
  session.analyze(a);
  EXPECT_EQ(session.stats().cache_hits, 0u);
  EXPECT_EQ(session.stats().full_evals, 4u);
}

TEST(AnalysisSession, ClearCacheForgetsTuples) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const InputProbs ip = uniform_input_probs(net, 0.5);
  session.analyze(ip);
  session.clear_cache();
  session.analyze(ip);
  EXPECT_EQ(session.stats().cache_hits, 0u);
  EXPECT_EQ(session.stats().full_evals, 2u);
}

TEST(AnalysisSession, BatchHasExactPerTupleSemantics) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const std::vector<InputProbs> tuples = {uniform_input_probs(net, 0.5),
                                          uniform_input_probs(net, 0.3),
                                          uniform_input_probs(net, 0.5)};
  const auto results = session.analyze_batch(tuples);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(session.stats().cache_hits, 1u);  // the repeated 0.5 tuple
  for (std::size_t t = 0; t < tuples.size(); ++t) {
    AnalysisSession cold(net);
    EXPECT_EQ(results[t].signal_probs(),
              cold.analyze(tuples[t]).signal_probs())
        << "tuple " << t;
  }
}

TEST(AnalysisSession, JsonContainsRequestedArtifactsOnly) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  AnalysisRequest req = AnalysisRequest::minimal();
  const std::string minimal =
      session.analyze(uniform_input_probs(net, 0.5), req).to_json();
  EXPECT_NE(minimal.find("\"signal_probs\""), std::string::npos);
  EXPECT_EQ(minimal.find("\"detection_probs\""), std::string::npos);
  EXPECT_EQ(minimal.find("\"observability\""), std::string::npos);
  EXPECT_EQ(minimal.find("\"scoap\""), std::string::npos);

  req = AnalysisRequest::everything();
  const std::string full =
      session.analyze(uniform_input_probs(net, 0.5), req).to_json();
  for (const char* key : {"\"engine\"", "\"circuit\"", "\"input_probs\"",
                          "\"signal_probs\"", "\"observability\"",
                          "\"detection_probs\"", "\"test_lengths\"",
                          "\"scoap\"", "\"stafan\""})
    EXPECT_NE(full.find(key), std::string::npos) << key;
}

TEST(AnalysisSession, JsonRoundTripsProbabilities) {
  // The writer must emit enough digits that a reader recovers the exact
  // doubles; spot-check one node value against its serialization.
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult r = session.analyze(varied_tuple(net, 0.5));
  const std::string json = r.to_json(0);  // compact mode, single line
  const NodeId out0 = net.outputs()[0];
  const std::string key = "\"node\":\"" + net.name_of(out0) + "\",\"p1\":";
  const std::size_t pos = json.find(key);
  ASSERT_NE(pos, std::string::npos) << json;
  const double parsed = std::stod(json.substr(pos + key.size()));
  EXPECT_EQ(parsed, r.signal_probs()[out0]);
}

TEST(AnalysisSession, EngineMismatchIsRejected) {
  const Netlist a = make_c17();
  const Netlist b = make_c17();
  auto engine_on_b = make_engine("naive", b);
  EXPECT_THROW(AnalysisSession(a, std::move(engine_on_b), {}),
               std::invalid_argument);
}

// --- golden serialized bytes ------------------------------------------------
//
// FNV-1a over the exact bytes of AnalysisResult::to_json(0) for three
// results per circuit: an analyze() with every artifact (observability,
// detection probabilities clamped by fault_bounds, a (d, e) grid with
// ties and unreachable points, SCOAP, STAFAN); a perturb() of it; and an
// analyze() of a tuple holding a 0.0 and a 1.0 input with the default
// grid and unclamped detection probabilities.  The expected hashes were
// recorded at commit c87f2dd, with the snprintf/strtod double formatter
// and the per-point test-length search, before either was rewritten:
// they pin that the rewrite changed no byte of the served artifact.

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Deterministic tuple without a library RNG: a golden-ratio walk over
/// [0.05, 0.95].
InputProbs golden_tuple(std::size_t k, double phase) {
  InputProbs t(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double u = static_cast<double>(i) * 0.6180339887498949 + phase;
    t[i] = 0.05 + 0.9 * (u - static_cast<double>(static_cast<long>(u)));
  }
  return t;
}

struct JsonGolden {
  std::uint64_t full, perturbed, edge;
};

JsonGolden json_hashes(const Netlist& net) {
  AnalysisSession session(net);
  const std::size_t k = net.inputs().size();

  AnalysisRequest everything = AnalysisRequest::everything();
  everything.fault_bounds = true;
  everything.d_grid = {1.0, 0.98, 0.9, 0.5, 0.01};
  everything.e_grid = {0.5, 0.95, 0.98, 0.999, 0.999999};
  const AnalysisResult full = session.analyze(golden_tuple(k, 0.25), everything);
  const AnalysisResult perturbed = session.perturb(full, k / 2, 0.3);

  AnalysisRequest grid;
  grid.test_lengths = true;
  InputProbs edge = golden_tuple(k, 0.75);
  edge[0] = 0.0;
  if (k > 1) edge[k - 1] = 1.0;
  const AnalysisResult edged = session.analyze(edge, grid);

  return {fnv1a(full.to_json(0)), fnv1a(perturbed.to_json(0)),
          fnv1a(edged.to_json(0))};
}

Netlist golden_circuit(const std::string& name) {
  if (name.rfind("data:", 0) != 0) return make_circuit(name);
  const char* data = std::getenv("PROTEST_DATA");
  if (!data) throw std::runtime_error("PROTEST_DATA not set");
  return read_bench_file(std::string(data) + "/" + name.substr(5));
}

TEST(AnalysisJsonGolden, ByteIdenticalSerialization) {
  const struct {
    const char* circuit;  ///< zoo name, or "data:<file>" for tests/data
    JsonGolden hash;
  } cases[] = {
      {"c17",
       {0xfec65ff0b70d41ecull, 0xfa0688a9ad8184d6ull, 0xc63c6bfb4040d146ull}},
      {"alu",
       {0x7a59c7a4b72c132dull, 0x567a97fd776d2fd4ull, 0x6c2dde1ef62cd3a3ull}},
      {"mult",
       {0x3c930100ce785f3aull, 0x6bb23e019d22d6b3ull, 0x18fcaa25a942db01ull}},
      {"div",
       {0x10356b4fed6beaf3ull, 0x6676f2944ad4be6dull, 0x33837bca04f48656ull}},
      {"comp",
       {0xbb6bcf264b9d38f4ull, 0x03e3ac7a770af8daull, 0xe8625749e201c801ull}},
      {"sn7485",
       {0x23f1204ff251293full, 0x0ac69811407b0770ull, 0xde25af1c2252bbe7ull}},
      {"mult4",
       {0xc5a34ed52a2d470cull, 0x19853402e29aa459ull, 0xbe1380139c069d33ull}},
      {"mult8",
       {0x732e3ca4c7840cf8ull, 0xd0a672145771d537ull, 0x29d11455af3e123cull}},
      {"mult12",
       {0xde6cba61fc1e0f7bull, 0x5e45df2d6ce84e22ull, 0xa00ade0efbbd73a4ull}},
      {"mult16",
       {0xcc286e9dbdc00ac6ull, 0xbc296ba3b65d0a3eull, 0x4f26ac940a2ed263ull}},
      {"div8",
       {0x476851cc52d61001ull, 0xb834092d15d7724cull, 0x5946e639bd54c442ull}},
      {"data:add74283.bench",
       {0x9cfc25a42070d79aull, 0x5f0a15c61d186acaull, 0x577c7cf36f232312ull}},
      {"data:alu74181.bench",
       {0x7a59c7a4b72c132dull, 0x567a97fd776d2fd4ull, 0x6c2dde1ef62cd3a3ull}},
      {"data:c17.bench",
       {0xfec65ff0b70d41ecull, 0xfa0688a9ad8184d6ull, 0xc63c6bfb4040d146ull}},
      {"data:cla74182.bench",
       {0xcdc695b98d46a058ull, 0xa6f90a9da87347b8ull, 0xc28829516a9e1388ull}},
      {"data:par74280.bench",
       {0xa7816a0bd0b5ab88ull, 0x807f742af77d717cull, 0x3a3298f7ed61fac2ull}},
  };
  for (const auto& c : cases) {
    const JsonGolden got = json_hashes(golden_circuit(c.circuit));
    EXPECT_EQ(got.full, c.hash.full)
        << c.circuit << " full: got 0x" << std::hex << got.full;
    EXPECT_EQ(got.perturbed, c.hash.perturbed)
        << c.circuit << " perturbed: got 0x" << std::hex << got.perturbed;
    EXPECT_EQ(got.edge, c.hash.edge)
        << c.circuit << " edge: got 0x" << std::hex << got.edge;
  }
}

}  // namespace
}  // namespace protest
