#!/usr/bin/env python3
"""The PROTEST benchmark: one driver for every workload, metric and check.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate-ladder --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR
    python3 -m unittest discover -s perfbench      # the benchmark's own tests

The first run builds the program from source (Release) into `.bench_build`
through perfbench/CMakeLists.txt, which includes the repository's own build
file.  Every input is generated from `--seed`; the program only receives the
generated requests and netlists.

Workloads (all closed loop, one client, at most 4 threads in total):

* estimate-ladder: `protest serve --threads 3`, one process.  Round-robin
  `analyze` requests with a fresh seeded tuple each over mult, div, mult16
  and two stress rungs (1k and 2k gates, sent as inline .bench source).
* designer-loop: `protest serve --workers 2 --threads 1`, the supervised
  fleet.  The tests/data corpus, sn7485, comp, mult8 and an alu session on
  the Monte-Carlo engine, under a seeded mix of analyze repeats and
  one-coordinate changes, perturb, perturb+screen, fault_bounds, lint,
  stats and optimize.  The client and the fleet share one CPU: the closed
  loop holds one request in flight, so no parallelism is lost, and on a
  virtual machine a wake-up across CPUs costs twice a same-CPU switch and
  swings with the host's load (run-to-run spread of every metric ~15%
  unpinned, ~5% pinned).
* fault-grade: library calls in one process (perfbench/pbtool.cpp): two
  5k-gate stress netlists graded per round: parse, naive-engine session
  analyze with fault bounds, JSON, pruned fault simulation at 1024 patterns.

The stress netlists use fixed structure seeds so that every run measures
the same circuits; `--seed` draws the tuples, the request mix and the
patterns.  (Different random structures of one size differ by up to 40% in
cost, which would drown any change in run-to-run spread.)

End-to-end metrics (`--trace 0`) are defined for every workload.  For the
served workloads an operation is a request; for fault-grade it is one
netlist graded.  Latencies exclude the client's own output checks, which
run between requests.  latency_p50_ms is the geometric mean of the median
latencies of the request groups (ladder and fault-grade: per netlist;
designer-loop: per request kind and netlist), so a shift in where a pooled
median falls between two groups' latency clusters cannot move it.  The
last stdout line is the result object; the line before it is the run
record (machine, build, seed, sizes, tail percentile with its sample count,
noise floor, error rate).  A failed output check prints the result with
"correct": false and exits 1.

`--trace 1` replays the same stream with spans around the calls into each
layer's public function and prints the per-layer metrics instead.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROTEST = os.path.join(BUILD, "protest", "protest")
PBTOOL = os.path.join(BUILD, "pbtool")
WORK = os.path.join(BUILD, "work")

WORKLOADS = ("estimate-ladder", "designer-loop", "fault-grade")

LADDER_ZOO = ("mult", "div", "mult16")
LADDER_STRESS = ((1000, 1), (2000, 2))      # (gates, structure seed)
LADDER_ARTIFACTS = ["observability", "detection_probs", "test_lengths"]
LADDER_THREADS = 3                          # + the client = 4
LADDER_CACHE = 8                            # results kept per ladder session

CORPUS = ("c17", "alu74181", "cla74182", "add74283", "par74280")
DESIGNER_ZOO = ("sn7485", "comp", "mult8")
DESIGNER_MC = ("alu-mc", "alu", 1 << 16)    # (session, circuit, patterns)
DESIGNER_WORKERS = 2
DESIGNER_CPU = max(os.sched_getaffinity(0))
# Requests per block of 20, so every run sees the same mix.
DESIGNER_MIX = (("repeat", 5), ("near", 3), ("perturb", 3), ("screen", 3),
                ("fault_bounds", 2), ("lint", 2), ("stats", 1), ("optimize", 1))
# optimize only where one hill-climb sweep stays interactive: at 16 inputs
# (mult8) a sweep takes 2 s, 200x the mean request, and a handful of them
# would decide a run's throughput on their own.
OPTIMIZE_MAX_INPUTS = 14
KNOWN_TUPLES = 8                            # well inside the 32-entry cache

FAULT_GRADE_STRESS = ((5000, 1), (5000, 2))

SERVE_CAP = 16
# Set-ups per run, half of them before the timed requests and half after,
# so that the median draws on the whole run.  A ladder set-up takes ~1.5 s,
# a designer-loop one ~0.1 s.
SETUP_REPEATS = {"estimate-ladder": 3, "designer-loop": 9}
REF_PATTERNS = 1 << 22
# sp_mean_abs_err is taken over a fixed set of seeded tuples, this many per
# estimator session (fault-grade: two per netlist, in pbtool), drawn from
# the same seed in every run: the error varies by 20% between random tuple
# sets, so a per-run draw would hide any accuracy change smaller than that.
ACCURACY_TUPLES = {"estimate-ladder": 2, "designer-loop": 4}
# Tail percentile per workload, fixed so that runs compare: the highest
# with at least ten samples beyond it at a run's usual request count.  Each
# run records how many samples lie beyond it.  fault-grade grades only ~12
# netlists per run, so its p90 has about one sample beyond it.
TAIL_Q = {"estimate-ladder": 90, "designer-loop": 99, "fault-grade": 90}
TRACE_REQUESTS = {"estimate-ladder": 20, "designer-loop": 400}

E2E = {
    "setup_s": "s", "requests_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "faults_per_s": "1/s",
    "sp_mean_abs_err": "prob", "peak_rss_mb": "MB",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class CheckFailed(Exception):
    """A set-up step or an output check failed."""


# --- build and environment ------------------------------------------------------

def build():
    """Configures and builds into .bench_build; raises when it fails."""
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    os.makedirs(WORK, exist_ok=True)


def source_digest():
    """SHA-256 over the program's sources: identifies the build even where
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"), recursive=True))
    files += [os.path.join(ROOT, "CMakeLists.txt"),
              os.path.join(ROOT, "tools", "protest_main.cpp")]
    for f in files:
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def machine_record():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    info = json.loads(subprocess.run([PBTOOL, "info"], check=True,
                                     capture_output=True, text=True).stdout)
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "comparable": bool(info["optimized"]),
            "commit": commit, "source_digest": source_digest()}


def pbtool(*args):
    out = subprocess.run([PBTOOL, *map(str, args)], capture_output=True, text=True)
    if out.returncode != 0:
        raise CheckFailed("pbtool %s failed: %s" % (args[0], out.stderr.strip()))
    return out.stdout


def stress_source(gates, structure_seed):
    return pbtool("gen-stress", gates, structure_seed)


def write_work(name, text):
    path = os.path.join(WORK, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# --- statistics -------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile q (0-100] of a non-empty sample."""
    s = sorted(values)
    k = max(1, math.ceil(q / 100.0 * len(s)))
    return s[k - 1]


def samples_beyond(n, q):
    return n - max(1, math.ceil(q / 100.0 * n))


def fixed_percentile(values, q):
    """Percentile q with its sample count, the number of samples beyond it,
    and whether that number is at least ten (the rule for reporting a
    tail)."""
    beyond = samples_beyond(len(values), q)
    return {"q": q, "value_ms": percentile(values, q), "samples": len(values),
            "beyond": beyond, "reportable": beyond >= 10}


def median(values):
    return statistics.median(values) if values else 0.0


def group_p50(lat_by_group):
    """Geometric mean of the per-group median latencies."""
    return statistics.geometric_mean([median(v) for v in lat_by_group.values()])


# --- request streams ----------------------------------------------------------------

def fresh_p(rng):
    return round(rng.uniform(0.05, 0.95), 4)


def ladder_stream(seed, inputs):
    """Endless (latency group, request) pairs: analyze requests, round-robin
    over the ladder's netlists, each with a fresh tuple.  `inputs` maps
    netlist name -> input count, in ladder order; the group is the netlist."""
    rng = random.Random("ladder-%d" % seed)
    names = list(inputs)
    i = 0
    while True:
        name = names[i % len(names)]
        i += 1
        yield name, {"verb": "analyze", "netlist": name,
                     "input_probs": [fresh_p(rng) for _ in range(inputs[name])],
                     "artifacts": LADDER_ARTIFACTS}


def designer_warm_tuple(seed, name, n_inputs):
    rng = random.Random("designer-warm-%d-%s" % (seed, name))
    return [fresh_p(rng) for _ in range(n_inputs)]


def designer_stream(seed, sessions):
    """Endless (latency group, request) pairs of the designer loop; the group
    is "kind:netlist".  `sessions` maps session name -> (input count,
    engine).  Every analyze is an exact repeat of a tuple the session holds
    or that tuple with one coordinate changed; perturbs start from a held
    tuple.  The kinds follow DESIGNER_MIX per block of 20, and
    each kind visits its netlists in seeded cycles: the costs of one kind
    differ by up to 100x between netlists, so a free draw would let the seed
    decide a run's cost."""
    rng = random.Random("designer-%d" % seed)
    names = list(sessions)
    known = {n: [designer_warm_tuple(seed, n, sessions[n][0])] for n in names}
    optimizable = [n for n in names if sessions[n][0] <= OPTIMIZE_MAX_INPUTS
                   and sessions[n][1] == "protest"]
    block = [kind for kind, count in DESIGNER_MIX for _ in range(count)]
    cycles = {}

    def netlist_for(kind):
        if not cycles.get(kind):
            cycles[kind] = list(optimizable if kind == "optimize" else names)
            rng.shuffle(cycles[kind])
        return cycles[kind].pop()

    def remember(name, tup):
        known[name].append(tup)
        del known[name][:-KNOWN_TUPLES]

    def changed(tup, idx):
        old = tup[idx]
        new = fresh_p(rng)
        while new == old:
            new = fresh_p(rng)
        return new

    while True:
        order = block[:]
        rng.shuffle(order)
        for kind in order:
            name = netlist_for(kind)
            n_in = sessions[name][0]
            base = rng.choice(known[name])
            req = {"netlist": name}
            if kind == "repeat":
                req.update(verb="analyze", input_probs=base)
            elif kind == "near":
                tup = list(base)
                idx = rng.randrange(n_in)
                tup[idx] = changed(tup, idx)
                remember(name, tup)
                req.update(verb="analyze", input_probs=tup)
            elif kind in ("perturb", "screen"):
                idx = rng.randrange(n_in)
                new_p = changed(base, idx)
                req.update(verb="perturb", input_probs=base, input_index=idx, new_p=new_p)
                if kind == "screen":
                    req["screen"] = True
                else:
                    tup = list(base)
                    tup[idx] = new_p
                    remember(name, tup)
            elif kind == "fault_bounds":
                req.update(verb="fault_bounds", input_probs=base)
            elif kind in ("lint", "stats"):
                req["verb"] = kind
            else:
                req.update(verb="optimize", sweeps=1)
            yield "%s:%s" % (kind, name), req


def numbered(requests, first_id):
    """Attaches sequential ids to (group, request) pairs; yields (id, group,
    encoded line)."""
    i = first_id
    for group, req in requests:
        req = dict(req)
        req["id"] = i
        yield i, group, json.dumps(req, separators=(",", ":")) + "\n"
        i += 1


# --- output checks ----------------------------------------------------------------

def _unit(x, what):
    if not (isinstance(x, (int, float)) and 0.0 <= x <= 1.0):
        raise CheckFailed("%s outside [0,1]: %r" % (what, x))


def check_analysis(res, request):
    circ = res["circuit"]
    sp = res["signal_probs"]
    if len(sp) != circ["gates"] or circ["nodes"] != circ["gates"] + circ["inputs"]:
        raise CheckFailed("signal_probs length %d != %d non-input nodes"
                          % (len(sp), circ["gates"]))
    if "input_probs" in request and len(res["input_probs"]) != len(request["input_probs"]):
        raise CheckFailed("input_probs arity differs from the request")
    for e in sp:
        _unit(e["p1"], "p1")
        if "observability" in e:
            _unit(e["observability"], "observability")
    if "detection_probs" in res:
        if len(res["detection_probs"]) != circ["faults"]:
            raise CheckFailed("detection_probs length != fault count")
        for e in res["detection_probs"]:
            _unit(e["p_detect"], "p_detect")
    if "test_lengths" in request.get("artifacts", []):
        if len(res.get("test_lengths", [])) != 6:
            raise CheckFailed("test_lengths grid is not 2 x 3")


def check_response(raw, request, req_id):
    """Validates one served response line against its request; returns the
    decoded response or raises CheckFailed."""
    try:
        resp = json.loads(raw)
    except ValueError as e:
        raise CheckFailed("unparseable response: %s" % e)
    if not isinstance(resp, dict) or resp.get("ok") is not True:
        raise CheckFailed("not ok: %s" % str(resp)[:200])
    if resp.get("id") != req_id:
        raise CheckFailed("response id %r != request id %r" % (resp.get("id"), req_id))
    if resp.get("verb") != request["verb"]:
        raise CheckFailed("response verb differs from the request")
    res = resp.get("result")
    if not isinstance(res, dict):
        raise CheckFailed("missing result payload")
    try:
        verb = request["verb"]
        if verb in ("analyze", "perturb"):
            check_analysis(res, request)
        elif verb == "fault_bounds":
            summ = res["summary"]
            if summ["faults"] < len(res["faults"]):
                raise CheckFailed("fault_bounds lists more faults than it counts")
            for f in res["faults"]:
                _unit(f["lo"], "lo")
                _unit(f["hi"], "hi")
                if f["lo"] > f["hi"]:
                    raise CheckFailed("fault interval lo > hi")
        elif verb == "lint":
            if not isinstance(res["report"], dict):
                raise CheckFailed("lint report missing")
        elif verb == "stats":
            if request.get("netlist") and res.get("resident") is not True:
                raise CheckFailed("stats: session not resident")
        elif verb == "optimize":
            if res["evaluations"] < 1:
                raise CheckFailed("optimize made no evaluation")
            for e in res["optimized_probs"]:
                _unit(e["p"], "optimized p")
        elif verb == "load_netlist":
            if res["gates"] < 1:
                raise CheckFailed("loaded an empty netlist")
    except (KeyError, TypeError) as e:
        raise CheckFailed("malformed %s payload: %r" % (request["verb"], e))
    return resp


def self_test():
    """Feeds one deliberately corrupted response to the checker; True when
    the checker counts it as a failure (and the intact one as a success)."""
    req = {"verb": "analyze", "netlist": "t", "input_probs": [0.5, 0.5],
           "artifacts": LADDER_ARTIFACTS, "id": 7}
    good = {"id": 7, "verb": "analyze", "ok": True, "result": {
        "engine": "protest",
        "circuit": {"inputs": 2, "outputs": 1, "gates": 1, "nodes": 3, "faults": 2},
        "input_probs": [{"input": "a", "p": 0.5}, {"input": "b", "p": 0.5}],
        "signal_probs": [{"node": "y", "p1": 0.25, "observability": 1}],
        "detection_probs": [{"fault": "y s-a-0", "p_detect": 0.25},
                            {"fault": "y s-a-1", "p_detect": 0.75}],
        "test_lengths": [{"d": d, "e": e, "n": 10} for d in (1, 0.98)
                         for e in (0.95, 0.98, 0.999)]}}
    bad = json.loads(json.dumps(good))
    bad["result"]["signal_probs"][0]["p1"] = 1.25
    failures = 0
    for resp in (good, bad):
        try:
            check_response(json.dumps(resp), req, 7)
        except CheckFailed:
            failures += 1
    try:
        check_response(json.dumps(good), req, 7)
    except CheckFailed:
        return False
    return failures == 1


# --- the daemon client --------------------------------------------------------------

class Daemon:
    """`protest serve` over stdin/stdout pipes, one request at a time."""

    def __init__(self, argv):
        self.t_spawn = time.perf_counter()
        self.log = open(os.path.join(WORK, "daemon.log"), "ab")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log)
        self.next_id = 1_000_000

    def call(self, line):
        """Sends one request line; returns (seconds, response bytes)."""
        t0 = time.perf_counter()
        self.proc.stdin.write(line.encode())
        self.proc.stdin.flush()
        raw = self.proc.stdout.readline()
        dt = time.perf_counter() - t0
        if not raw:
            raise CheckFailed("daemon closed its output")
        return dt, raw

    def request(self, req):
        """Untimed helper call with its own id; returns the checked response."""
        self.next_id += 1
        req = dict(req, id=self.next_id)
        _, raw = self.call(json.dumps(req) + "\n")
        return check_response(raw, req, self.next_id)

    def pids(self):
        pids = [self.proc.pid]
        res = self.request({"verb": "stats"})["result"]
        for w in res.get("supervisor", {}).get("workers", []):
            pids.append(w["pid"])
        return pids

    def peak_rss_mb(self):
        total = 0.0
        for pid in self.pids():
            with open("/proc/%d/status" % pid) as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def close(self):
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(b'{"verb":"shutdown","id":0}\n')
                self.proc.stdin.flush()
                self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.log.close()


def serve_argv(workload):
    if workload == "estimate-ladder":
        return [PROTEST, "serve", "--threads", str(LADDER_THREADS),
                "--cap", str(SERVE_CAP)]
    return [PROTEST, "serve", "--workers", str(DESIGNER_WORKERS),
            "--threads", "1", "--cap", str(SERVE_CAP)]


# --- workload inputs --------------------------------------------------------------

class Inputs:
    """Everything a served workload sends before its timed requests: the
    netlist loads and one warm-up analyze per session, plus the stream."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.loads = []          # load_netlist requests
        self.sessions = {}       # name -> (inputs, engine)
        self.gates = {}          # name -> gate count
        if workload == "estimate-ladder":
            # No ladder tuple repeats, so the sessions keep a small result
            # cache: it fills within the first rounds, and peak memory then
            # does not depend on how many requests a run got through.
            for c in LADDER_ZOO:
                self.loads.append({"verb": "load_netlist", "netlist": c, "circuit": c,
                                   "max_cached_results": LADDER_CACHE})
            for gates, sseed in LADDER_STRESS:
                self.loads.append({"verb": "load_netlist",
                                   "netlist": "stress%dk" % (gates // 1000),
                                   "source": stress_source(gates, sseed),
                                   "max_cached_results": LADDER_CACHE})
        else:
            for c in CORPUS:
                with open(os.path.join(ROOT, "tests", "data", c + ".bench")) as fh:
                    self.loads.append({"verb": "load_netlist", "netlist": c,
                                       "source": fh.read()})
            for c in DESIGNER_ZOO:
                self.loads.append({"verb": "load_netlist", "netlist": c, "circuit": c})
            name, circuit, patterns = DESIGNER_MC
            self.loads.append({"verb": "load_netlist", "netlist": name,
                               "circuit": circuit, "engine": "monte-carlo",
                               "patterns": patterns, "seed": 1})

    def learn(self, load, resp):
        self.sessions[load["netlist"]] = (resp["result"]["inputs"],
                                          resp["result"]["engine"])
        self.gates[load["netlist"]] = resp["result"]["gates"]

    def warmup(self, name):
        n_in = self.sessions[name][0]
        if self.workload == "estimate-ladder":
            return {"verb": "analyze", "netlist": name, "p": 0.5,
                    "artifacts": LADDER_ARTIFACTS}
        return {"verb": "analyze", "netlist": name,
                "input_probs": designer_warm_tuple(self.seed, name, n_in)}

    def stream(self):
        if self.workload == "estimate-ladder":
            return ladder_stream(self.seed, {n: s[0] for n, s in self.sessions.items()})
        return designer_stream(self.seed, self.sessions)

    def setup_requests(self):
        return self.loads + [self.warmup(n) for n in self.sessions]


def set_up(workload, inputs):
    """Spawns a daemon and runs the set-up; returns (daemon, seconds)."""
    d = Daemon(serve_argv(workload))
    try:
        d.request({"verb": "stats"})          # ready
        for load in inputs.loads:
            resp = d.request(load)
            inputs.learn(load, resp)
        for name in inputs.sessions:
            d.request(inputs.warmup(name))
    except Exception:
        d.close()
        raise
    return d, time.perf_counter() - d.t_spawn


def faults_in(resp):
    res = resp["result"]
    if "circuit" in res:
        return res["circuit"]["faults"] if "detection_probs" in res else 0
    if "summary" in res:
        return res["summary"]["faults"]
    return 0


def accuracy(d, inputs):
    """sp_mean_abs_err over every non-input node of the fixed accuracy
    tuples of each estimator session, against the Monte-Carlo engine at
    REF_PATTERNS.  Runs after the timed requests."""
    err = noise = nodes = tuples = 0
    for load in inputs.loads:
        name = load["netlist"]
        n_in, engine = inputs.sessions[name]
        if engine != "protest":
            continue
        d.request(dict(load, netlist="ref-" + name, engine="monte-carlo",
                       patterns=REF_PATTERNS, seed=1))
        rng = random.Random("accuracy-" + name)
        for _ in range(ACCURACY_TUPLES[inputs.workload]):
            q = {"verb": "analyze", "artifacts": [],
                 "input_probs": [fresh_p(rng) for _ in range(n_in)]}
            est = d.request(dict(q, netlist=name))["result"]["signal_probs"]
            ref = d.request(dict(q, netlist="ref-" + name))["result"]["signal_probs"]
            tuples += 1
            for e, r in zip(est, ref):
                if e["node"] != r["node"]:
                    raise CheckFailed("estimate and reference node order differ")
                err += abs(e["p1"] - r["p1"])
                # Expected |error| of the reference itself (half-normal mean).
                noise += math.sqrt(r["p1"] * (1 - r["p1"]) / REF_PATTERNS * 2 / math.pi)
                nodes += 1
        d.request({"verb": "evict", "netlist": "ref-" + name})
    return err / nodes, noise / nodes, nodes, tuples


# --- untraced runs --------------------------------------------------------------------

def run_served(workload, seed, seconds):
    inputs = Inputs(workload, seed)
    setups = []

    def timed_set_up():
        d, s = set_up(workload, inputs)
        setups.append(s)
        return d

    before = SETUP_REPEATS[workload] // 2
    for _ in range(before):
        timed_set_up().close()
    d = timed_set_up()
    try:
        lat, by_group, faults, errors = [], {}, 0, []
        busy = 0.0
        for req_id, group, line in numbered(inputs.stream(), 1):
            dt, raw = d.call(line)
            lat.append(dt * 1e3)
            busy += dt
            req = json.loads(line)
            by_group.setdefault(group, []).append(dt * 1e3)
            try:
                faults += faults_in(check_response(raw, req, req_id))
            except CheckFailed as e:
                errors.append(str(e))
            if busy >= seconds:
                break
        rss = d.peak_rss_mb()
        err, noise, nodes, tuples = accuracy(d, inputs)
    finally:
        d.close()
    for _ in range(SETUP_REPEATS[workload] - before - 1):
        timed_set_up().close()
    metrics = {
        "setup_s": median(setups),
        "requests_per_s": len(lat) / busy,
        "latency_p50_ms": group_p50(by_group),
        "latency_tail_ms": percentile(lat, TAIL_Q[workload]),
        "faults_per_s": faults / busy,
        "sp_mean_abs_err": err,
        "peak_rss_mb": rss,
    }
    record = {
        "requests": len(lat), "setup_runs_s": setups,
        "groups": {g: {"requests": len(v), "p50_ms": median(v)}
                   for g, v in sorted(by_group.items())},
        "sessions": {n: {"inputs": s[0], "engine": s[1], "gates": inputs.gates[n]}
                     for n, s in inputs.sessions.items()},
        "latency_tail": fixed_percentile(lat, TAIL_Q[workload]),
        "sp_noise_floor": noise, "sp_nodes": nodes, "sp_tuples": tuples,
        "reference": "monte-carlo, %d patterns" % REF_PATTERNS,
        "threads": ({"client": 1, "serve": LADDER_THREADS}
                    if workload == "estimate-ladder" else
                    {"client": 1, "workers": DESIGNER_WORKERS, "per_worker": 1,
                     "cpus": [DESIGNER_CPU]}),
        "errors": errors[:5],
    }
    return metrics, len(lat), len(errors), record


def fault_grade_files():
    return [write_work("fault-grade-%d-%d.bench" % gs, stress_source(*gs))
            for gs in FAULT_GRADE_STRESS]


def run_fault_grade(seed, seconds):
    files = fault_grade_files()
    out = json.loads(pbtool("fault-grade", "--seconds", seconds, "--seed", seed,
                            *files))
    lat = [x * 1e3 for x in out["op_s"]]
    by_netlist = {f: lat[i::len(files)] for i, f in enumerate(files)}
    metrics = {
        "setup_s": out["setup_s"],
        "requests_per_s": out["attempted"] / out["timed_s"],
        "latency_p50_ms": group_p50(by_netlist),
        "latency_tail_ms": percentile(lat, TAIL_Q["fault-grade"]),
        "faults_per_s": out["faults_per_s"],
        "sp_mean_abs_err": out["sp_mean_abs_err"],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    record = {
        "operations": out["attempted"], "gates": out["gates"],
        "patterns": out["patterns"], "faults_graded": out["faults_graded"],
        "setup_runs_s": out["setup_runs_s"],
        "latency_tail": fixed_percentile(lat, TAIL_Q["fault-grade"]),
        "sp_noise_floor": out["sp_noise_floor"], "sp_nodes": out["sp_nodes"],
        "reference": "monte-carlo, %d patterns" % out["ref_patterns"],
        "threads": {"program": out["threads"]}, "errors": out["errors"],
    }
    return metrics, out["attempted"], out["failed"], record


# --- traced runs ----------------------------------------------------------------------

PER_LAYER_UNITS = {
    "netlist.parse_s": "s", "netlist.compile_s": "s", "netlist.nodes": "count",
    "prob.first_eval_s": "s", "prob.full_eval_s": "s", "prob.frozen_eval_s": "s",
    "prob.select_s": "s", "prob.perturb_s": "s", "prob.gates_conditioned": "count",
    "prob.joining_points": "count", "prob.max_w": "count",
    "prob.mc_eval_s": "s", "executor.workers": "count",
    "observe.observability_s": "s", "observe.detection_s": "s", "testlen.grid_s": "s",
    "lint.fault_analyze_s": "s", "lint.settled_fraction": "ratio",
    "lint.proven_undetectable": "count",
    "sim.fault_sim_s": "s", "sim.faults_simulated": "count", "sim.pruned_fraction": "ratio",
    "optimize.request_s": "s", "optimize.evaluations": "count",
    "session.cache_hits": "count", "session.incremental_evals": "count",
    "session.screen_evals": "count", "session.full_evals": "count",
    "session.hit_ratio": "ratio",
    "json.encode_s": "s", "json.decode_s": "s", "json.response_bytes": "bytes",
    "service.handle_ms": "ms", "service.self_ms": "ms",
    "transport.pipe_ms": "ms", "supervisor.hop_ms": "ms",
    "supervisor.retries": "count", "supervisor.restarts": "count",
    "trace.request_s": "s", "trace.residual_s": "s", "trace.overhead_ms": "ms",
}
# Self time per layer, summed over the traced requests.
SPAN_LAYERS = {"netlist": "netlist", "prob": "prob", "observe": "observe",
               "lint": "lint", "sim": "sim", "protest.session": "session",
               "protest.service": "service", "analysis.decode": "decode",
               "analysis.encode": "encode"}
for _short in SPAN_LAYERS.values():
    PER_LAYER_UNITS["self.%s_s" % _short] = "s"

# What each per-layer number is taken over, for the report.
PER_LAYER_BASE = {
    "netlist": "sum over the workload's netlists, median of 3 repetitions",
    "prob": "sum over the workload's estimator netlists (the session's engine)",
    "prob.mc": "one Monte-Carlo evaluation, median of 3",
    "observe": "sum over the workload's netlists, median of 3",
    "testlen": "the 2 x 3 (d, e) grid, summed over the netlists",
    "lint": "analyze_faults over the workload's netlists",
    "sim": "pruned fault simulation, one round",
    "optimize": "median served optimize request / mean evaluations",
    "session": "summed stats-verb counters after the replay",
    "json": "median per traced request (fault-grade: per round)",
    "service": "median per request, in-process",
    "transport": "median per-request difference, plain daemon - in-process",
    "supervisor": "median per-request difference, supervised - plain daemon",
    "trace": "traced requests in total",
    "self": "self time summed over the traced requests",
}


# Per-layer metrics a workload's calls never reach: reported as 0.
NOT_EXERCISED = {
    "estimate-ladder": ("lint.", "sim.", "optimize.", "supervisor."),
    "designer-loop": ("sim.",),
    "fault-grade": ("prob.mc_eval_s", "prob.gates_conditioned", "prob.joining_points",
                    "prob.max_w", "optimize.", "session.", "service.", "transport.",
                    "supervisor.", "json.decode_s"),
}
# What the traced path cannot split from outside the program.
TRACE_NOTES = [
    "prob spans of perturb requests include the artifact materialization "
    "that AnalysisSession::perturb does inside the call",
    "the test-length grid is computed inside AnalysisResult::to_json, so on "
    "the request path it is part of the encode span; testlen.grid_s times "
    "required_test_length directly",
    "lint, fault_bounds, optimize and stats run as one ProtestService::handle "
    "span (layer protest.service): their payload writers are internal to dispatch",
    "fault-grade runs the naive engine, which conditions on nothing, so the "
    "PROTEST estimator counters read 0 there",
    "simulate_faults_pruned does not report how many faults it simulated: "
    "sim.faults_simulated is the fault list minus the proven-undetectable "
    "faults it skips by contract",
]


def span_report(spans):
    """Self time per layer from [layer, req, parent, t0, t1] spans.  A
    span's self time is its duration minus its children's; the roots'
    ("request") self time is the unattributed residual.  Returns (self
    seconds by layer, residual seconds by request, root seconds by
    request)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[2] >= 0:
            child[int(s[2])] += s[4] - s[3]
    self_s, residual, roots = {}, {}, {}
    for i, s in enumerate(spans):
        own = (s[4] - s[3]) - child[i]
        if s[2] < 0:
            residual[int(s[1])] = own
            roots[int(s[1])] = s[4] - s[3]
        else:
            self_s[s[0]] = self_s.get(s[0], 0.0) + own
    return self_s, residual, roots


def per_request(spans, layer):
    """Per request id: summed duration of the spans of one layer."""
    out = {}
    for s in spans:
        if s[0] == layer:
            out[int(s[1])] = out.get(int(s[1]), 0.0) + s[4] - s[3]
    return out


def paired_median(a, b):
    return median([x - y for x, y in zip(a, b)])


def write_stream(inputs, count):
    setup = [json.dumps(dict(r, id=900_000 + i), separators=(",", ":"))
             for i, r in enumerate(inputs.setup_requests())]
    reqs = []
    for req_id, _, line in numbered(inputs.stream(), 1):
        reqs.append((req_id, line))
        if len(reqs) == count:
            break
    path = write_work("stream-%s-%d.ndjson" % (inputs.workload, inputs.seed),
                      "\n".join(setup + [l.strip() for _, l in reqs]) + "\n")
    return path, len(setup), reqs


def replay(inputs, path, setup, threads, daemons):
    """All legs of the traced run in one pbtool replay; returns its output
    with the legs by name."""
    final = [{"verb": "stats", "netlist": n, "id": 800_000 + i}
             for i, n in enumerate(inputs.sessions)]
    final.append({"verb": "stats", "id": 899_999})
    final_path = write_work("final.ndjson", "\n".join(json.dumps(f) for f in final) + "\n")
    args = ["replay", "--stream", path, "--setup", setup, "--threads", threads,
            "--final", final_path]
    for argv in daemons:
        args += ["--daemon", " ".join(argv)]
    out = json.loads(pbtool(*args))
    out["legs"] = {leg["name"]: leg for leg in out["legs"]}
    for leg in out["legs"].values():
        if leg["failed"]:
            raise CheckFailed("replay: %s" % leg["errors"])
    return out


def layer_metrics_from_spans(m, spans):
    """Fills the self-time, trace and JSON metrics from a traced run's spans;
    returns (root and residual seconds by request, the span report)."""
    self_s, residual_by_req, roots = span_report(spans)
    residual = sum(residual_by_req.values())
    for layer, short in SPAN_LAYERS.items():
        m["self.%s_s" % short] = self_s.get(layer, 0.0)
    m["trace.request_s"] = sum(roots.values())
    m["trace.residual_s"] = residual
    decode = per_request(spans, "analysis.decode")
    encode = per_request(spans, "analysis.encode")
    m["json.decode_s"] = median(list(decode.values()))
    m["json.encode_s"] = median(list(encode.values()))
    # self_s + residual_s = request_s by construction (SpanTest pins it).
    return (roots, residual_by_req), {"self_s": self_s, "residual_s": residual,
                                      "request_s": m["trace.request_s"]}


def run_traced_served(workload, seed):
    inputs = Inputs(workload, seed)
    # A set-up pass learns the sessions' input counts the stream needs.
    d, _ = set_up(workload, inputs)
    d.close()
    path, setup, reqs = write_stream(inputs, TRACE_REQUESTS[workload])
    threads = 1 if workload == "designer-loop" else LADDER_THREADS
    plain = [PROTEST, "serve", "--threads", str(threads), "--cap", str(SERVE_CAP)]
    daemons = [plain] + ([serve_argv(workload)] if workload == "designer-loop" else [])
    out = replay(inputs, path, setup, threads, daemons)
    legs = out["legs"]
    handle, traced, plain_leg = legs["handle"], legs["traced"], legs["daemon0"]
    # Every leg must return the dispatch path's bytes (stats payloads
    # differ: the traced path adds cache hits).
    verbs = [json.loads(line)["verb"] for _, line in reqs]
    failed = 0
    for leg in legs.values():
        failed += sum(1 for v, h, x in zip(verbs, handle["hash"], leg["hash"])
                      if v != "stats" and h != x)

    m = {k: 0.0 for k in PER_LAYER_UNITS}
    (roots, residual), report = layer_metrics_from_spans(m, out["spans"])
    layer_ms = [(roots[k] - residual[k]) * 1e3 for k in sorted(roots)]
    m["trace.overhead_ms"] = paired_median(traced["latency_ms"], handle["latency_ms"])
    m["service.handle_ms"] = median(handle["latency_ms"])
    # Dispatch time not spent in the layer calls the traced path makes.
    m["service.self_ms"] = paired_median(handle["latency_ms"], layer_ms)
    m["transport.pipe_ms"] = paired_median(plain_leg["latency_ms"], handle["latency_ms"])
    m["json.response_bytes"] = median(handle["bytes"])
    m["executor.workers"] = out["executor_workers"]
    counters = {}
    for raw in plain_leg["final"][:-1]:
        for k, v in json.loads(raw)["result"]["stats"].items():
            if isinstance(v, (int, float)):
                counters[k] = counters.get(k, 0) + v
    for k in ("cache_hits", "incremental_evals", "screen_evals", "full_evals"):
        m["session." + k] = counters.get(k, 0)
    m["session.hit_ratio"] = counters.get("cache_hits", 0) / max(1, counters.get("analyze_calls", 0))
    opt = [json.loads(r)["result"]["evaluations"] for r in out["kept"]]
    opt_ms = [ms for ms, v in zip(handle["latency_ms"], verbs) if v == "optimize"]
    m["optimize.evaluations"] = statistics.fmean(opt) if opt else 0.0
    m["optimize.request_s"] = median(opt_ms) / 1e3

    if workload == "designer-loop":
        sup = legs["daemon1"]
        m["supervisor.hop_ms"] = paired_median(sup["latency_ms"], plain_leg["latency_ms"])
        c = json.loads(sup["final"][-1])["result"]["supervisor"]["counters"]
        m["supervisor.retries"] = c["retries"]
        m["supervisor.restarts"] = c["restarts"]
        nets = [os.path.join(ROOT, "tests", "data", c + ".bench") for c in CORPUS]
        nets += ["zoo:" + c for c in DESIGNER_ZOO]
        probe = json.loads(pbtool("probe", "--engine", "protest", "--seed", seed,
                                  "--faults", "--mc",
                                  "zoo:%s,%d,1" % DESIGNER_MC[1:], *nets))
    else:
        nets = ["zoo:" + c for c in LADDER_ZOO]
        nets += [write_work("ladder-%d-%d.bench" % gs, stress_source(*gs))
                 for gs in LADDER_STRESS]
        probe = json.loads(pbtool("probe", "--engine", "protest", "--seed", seed,
                                  "--mc",
                                  "zoo:mult16,%d,%d" % (REF_PATTERNS, LADDER_THREADS),
                                  *nets))
    m.update(probe)
    record = {"traced_requests": len(reqs), "legs": sorted(legs),
              "span_report": report}
    return m, len(reqs) * len(legs), failed, record


def run_traced_fault_grade(seed):
    files = fault_grade_files()
    traced = json.loads(pbtool("fault-grade", "--trace", "--seed", seed, *files))
    m = {k: 0.0 for k in PER_LAYER_UNITS}
    _, report = layer_metrics_from_spans(m, traced["spans"])
    m["trace.overhead_ms"] = paired_median(traced["op_s"], traced["untraced_s"]) * 1e3
    m["json.decode_s"] = 0.0      # no requests to decode
    m["json.encode_s"] = sum(per_request(traced["spans"], "analysis.encode").values())
    m["json.response_bytes"] = traced["response_bytes"]
    m["lint.fault_analyze_s"] = report["self_s"].get("lint", 0.0)
    m["lint.settled_fraction"] = traced["settled_fraction_mean"]
    m["lint.proven_undetectable"] = traced["proven_undetectable"]
    m["sim.fault_sim_s"] = report["self_s"].get("sim", 0.0)
    m["sim.faults_simulated"] = traced["faults_simulated"]
    m["sim.pruned_fraction"] = (traced["proven_undetectable"] /
                                max(1, traced["faults_graded"]))
    m["executor.workers"] = traced["threads"]
    probe = json.loads(pbtool("probe", "--engine", "naive", "--seed", seed, *files))
    m.update(probe)
    record = {"traced_operations": len(traced["op_s"]), "span_report": report}
    return m, traced["attempted"], traced["failed"], record


# --- compare mode ---------------------------------------------------------------------

def load_runs(path):
    """(workload, seed, result) for every run output file at `path` (a file
    holding one run's stdout, or a directory of them), in file order.  A
    file without a run record (a failed run) is reported and skipped."""
    files = sorted(glob.glob(os.path.join(path, "*"))) if os.path.isdir(path) else [path]
    runs = []
    for f in files:
        with open(f) as fh:
            lines = [l for l in fh.read().splitlines() if l.strip()]
        record = next((json.loads(l)["record"] for l in lines
                       if l.startswith('{"record"')), None)
        if record is None:
            log("compare: %s holds no run record, skipped" % f)
            continue
        runs.append((record["workload"], record["seed"], json.loads(lines[-1])))
    return runs


MIN_PAIRS = 10


def verdict(parent, change, better, bound):
    """improved / unchanged / worse / unresolved for one metric on one
    workload, by the 9-of-10-pairs and inter-quartile rule.  parent[i] and
    change[i] are a pair (see pair_runs).  Fewer than MIN_PAIRS pairs is
    unresolved; so is a parent spread beyond the bound, unless every run of
    the change beats every run of the parent."""
    mp, mc = median(parent), median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (mp, mp, mp)
    spread = q3 - q1
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (mc - mp)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    every_run_better = (min(change) > max(parent) if better == "higher"
                        else max(change) < min(parent))
    out = {"parent_median": mp, "change_median": mc, "parent_iqr": [q1, q3],
           "ratio": mc / mp if mp else float("inf"), "pairs": len(pairs),
           "wins": wins}
    if len(pairs) < MIN_PAIRS:
        out["verdict"] = "unresolved"
    elif mp and spread / abs(mp) > bound:
        out["verdict"] = "improved" if every_run_better else "unresolved"
    elif wins >= 0.9 * len(pairs) and gain > spread:
        out["verdict"] = "improved"
    elif mp and -gain / abs(mp) > bound:
        out["verdict"] = "worse"
    else:
        out["verdict"] = "unchanged"
    return out


def pair_runs(parent, change):
    """Pairs (seed, result) runs by seed and, within a seed, by order; returns
    (pairs, unpaired run count).  Every run is kept: repeated seeds make
    several pairs."""
    by_seed = {}
    for side, runs in ((0, parent), (1, change)):
        for seed, result in runs:
            by_seed.setdefault(seed, ([], []))[side].append(result)
    pairs, unpaired = [], 0
    for seed in sorted(by_seed):
        p, c = by_seed[seed]
        pairs += list(zip(p, c))
        unpaired += abs(len(p) - len(c))
    return pairs, unpaired


def compare_main(args):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("parent", help="run outputs of the parent commit (dir or file)")
    ap.add_argument("change", help="run outputs of the change (dir or file)")
    a = ap.parse_args(args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parent, change = load_runs(a.parent), load_runs(a.change)
    rows = []
    for wl in [w["name"] for w in bench["workloads"]]:
        pairs, unpaired = pair_runs([(s, r) for w, s, r in parent if w == wl],
                                    [(s, r) for w, s, r in change if w == wl])
        if not pairs:
            continue
        if unpaired:
            print("%-16s %d run(s) without a partner of the same seed" % (wl, unpaired))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            v = verdict(pv, cv, metric["better"], metric["bound"])
            rows.append((wl, name, v))
            print("%-16s %-16s %-10s change/parent = %.4f (parent median %.6g %s, "
                  "IQR [%.6g, %.6g]; change median %.6g; change better in %d/%d pairs)"
                  % (wl, name, v["verdict"], v["ratio"], v["parent_median"],
                     metric["unit"], v["parent_iqr"][0], v["parent_iqr"][1],
                     v["change_median"], v["wins"], v["pairs"]))
    return 0 if rows else 1


# --- entry point --------------------------------------------------------------------

def main(argv):
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if not self_test():
        log("perfbench: the output checker accepted a corrupted response")
        return 1
    if a.workload == "designer-loop":
        os.sched_setaffinity(0, {DESIGNER_CPU})     # inherited by the fleet
    try:
        machine = machine_record()
        if a.trace:
            if a.workload == "fault-grade":
                metrics, attempted, failed, record = run_traced_fault_grade(a.seed)
            else:
                metrics, attempted, failed, record = run_traced_served(a.workload, a.seed)
            units = PER_LAYER_UNITS
            record["per_layer_base"] = PER_LAYER_BASE
            record["not_exercised"] = sorted(
                k for k in units if k.startswith(NOT_EXERCISED[a.workload]))
            record["trace_notes"] = TRACE_NOTES
        else:
            if a.workload == "fault-grade":
                metrics, attempted, failed, record = run_fault_grade(a.seed, a.seconds)
            else:
                metrics, attempted, failed, record = run_served(a.workload, a.seed, a.seconds)
            units = E2E
    except (CheckFailed, OSError, ValueError, KeyError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        return 1
    record.update({"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                   "trace": a.trace, "machine": machine, "self_test": "passed",
                   "error_rate": failed / max(1, attempted)})
    if not machine["comparable"]:
        log("perfbench: WARNING: unoptimized build, figures are not comparable")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
