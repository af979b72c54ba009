"""The benchmark's workloads, each with the reason it exists.

Every workload reports the same end-to-end metrics (END_TO_END); what a
"unit of work" is differs per workload and is stated in its definition.
Workload-specific figures (p99, goodput, shed share, per-command medians)
are printed by name and unit next to them.
"""

import json
import os
import re
import time

from . import inputs, layers, procs, stats

END_TO_END = [("setup_s", "s"), ("latency_p50_ms", "ms"), ("peak_rss_mb", "MB")]

# How many times each run sets the system up; setup_s is the median.
SETUPS = 5
# rts_serve knobs shared by both serve workloads: a fixed worker count and
# a small queue, so overload sheds at admission instead of queueing for
# seconds. Solver threading stays at the program's default.
SERVE_WORKERS = 4
SERVE_QUEUE = 64
# Connections of the load generator, one per worker. A constant, so the
# figures do not change with the machine's core count.
LOAD_CONNS = 4
# The load generator's own lateness (sent minus due) in the latency phase
# must stay small next to what it measures: at p99, below the larger of
# this floor and a quarter of the latency p50, or the run is invalid.
LATENESS_P99_FLOOR_MS = 10.0
LATENESS_P99_SHARE = 0.25
# Paper-scale requests (n=100, m=8) with a small per-request GA/MC budget
# (about 12 ms of CPU each), so the below-knee phase collects 1000 requests
# in under 20 s. At the request defaults (1000 generations and realizations)
# the 4-worker knee is near 30 rps and that phase would take a minute.
SOLVE = {"iters": 50, "realizations": 100, "epsilons": [1.1, 1.2, 1.3, 1.4, 1.5]}
PAPER_TASKS, PAPER_PROCS = 100, 8

WORKLOADS = {
    "serve-solve": {
        "why": "distinct-seed solves over a socket: every request misses the cache, "
               "so the GA and Monte Carlo dominate and the thread budget shows",
        "problems": 32,            # solve cost varies per problem; average it out
        "below_knee_rps": 60.0,    # about a quarter of the 4-worker capacity
        "min_below_knee": 1000,    # p99 needs >= 1000 samples
        "overload_rps": 1500.0,    # several times past the knee
    },
    "serve-hit": {
        "why": "a pre-warmed key set replayed at a high fixed rate: almost every "
               "request is a cache hit, so net and service do all the work",
        "problems": 2,
        "keys": 16,
        "rate_rps": 2000.0,
        "min_requests": 1000,
    },
    "offline-10k": {
        "why": "one large solve (n=10k, m=8) through the rts CLI: intra-solve "
               "parallelism and a working set beyond L2",
        "tasks": 10000,
        "iters": 20,
        "realizations": 20000,
        "epsilon": 1.2,
        "problems": 3,   # cost depends on the graph's shape; average it out
    },
    "offline-resched": {
        "why": "rts resched at paper scale with lambda=1.5 and probabilistic "
               "dropping: the only path through resched and partial timing",
        "oversub": 1.5,
        "problems": 16,  # resched work varies per problem; average it out
    },
}


class Result:
    def __init__(self):
        self.metrics = {}      # name -> (value, unit)
        self.lines = []        # printed before the final JSON line
        self.checks = []       # (name, ok, detail)
        self.attempted = 0
        self.failed = 0
        self.layer = None      # LayerReport of a traced run
        self.environment_ok = True  # False: the machine, not the program, failed

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def program_ok(self):
        """Every output correct and every count reconciled. Shed requests
        are counted in `failed` but are not a correctness failure."""
        return all(ok for _, ok, _ in self.checks)

    @property
    def correct(self):
        return self.program_ok and self.environment_ok

    def note(self, line):
        self.lines.append(line)


class Context:
    def __init__(self, bins, run_dir, seed, seconds, trace):
        self.bins = bins       # {"rts", "rts_serve", "harness"} -> path
        self.run_dir = run_dir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.server = None     # the live rts_serve of a serve workload

    def path(self, name):
        return os.path.join(self.run_dir, name)

    def harness(self, *args):
        return procs.run([self.bins["harness"]] + [str(a) for a in args], self.run_dir)

    def generate(self, specs):
        inputs.write_problem_specs(self.path("problems.tsv"), specs)
        for name, gen_seed, tasks, procs_ in specs:
            procs.run([self.bins["rts"], "generate", "--tasks", str(tasks), "--procs",
                       str(procs_), "--seed", str(gen_seed), "--out", name], self.run_dir)


# --------------------------------------------------------------------------
# Serve workloads

_JOB = re.compile(r'^\{"job":\d+,')


def normalized(line):
    """A result line with the job index and the cache flag neutralized."""
    return _JOB.sub('{"job":0,', line, count=1).replace('"cache_hit":true',
                                                        '"cache_hit":false', 1)


def read_load_records(path):
    """Rows of `rts_perfbench load --out`: (due, sent, recv, response)."""
    rows = []
    with open(path) as f:
        for row in f:
            cols = row.rstrip("\n").split("\t", 4)
            rows.append((int(cols[1]), int(cols[2]), int(cols[3]), cols[4]))
    return rows


def classify(response):
    """(status, error, cache_hit) of a response line; status 'lost' if none."""
    if not response:
        return "lost", "", False
    obj = json.loads(response)
    return obj.get("status", "?"), obj.get("error", ""), bool(obj.get("cache_hit", False))


def run_load(ctx, schedule_name, out_name, conns):
    ctx.harness("load", "--port-file", ctx.server.port_file, "--schedule",
                ctx.path(schedule_name), "--conns", conns, "--out", ctx.path(out_name))
    return read_load_records(ctx.path(out_name))


def serve(ctx, name):
    spec = WORKLOADS[name]
    res = Result()
    conns = LOAD_CONNS
    problems = inputs.problem_specs(ctx.seed, name, spec["problems"], PAPER_TASKS,
                                    PAPER_PROCS)
    paths = [p[0] for p in problems]
    if name == "serve-solve":
        n_a = max(spec["min_below_knee"], int(spec["below_knee_rps"] * 0.75 * ctx.seconds))
        overload_s = max(2.0, 0.25 * ctx.seconds)
        phases = [("below-knee", spec["below_knee_rps"], n_a)]
        if not ctx.trace:
            phases.append(("overload", spec["overload_rps"],
                           int(spec["overload_rps"] * overload_s)))
        trace = inputs.serve_solve_trace(ctx.seed, paths, SOLVE, phases)
        warm = []
    else:
        count = max(spec["min_requests"], int(spec["rate_rps"] * ctx.seconds))
        warm, trace = inputs.serve_hit_trace(ctx.seed, paths, SOLVE, spec["keys"],
                                             spec["rate_rps"], count)
    latency_phase = trace[0][2]

    def set_up(tag):
        start = time.perf_counter()
        ctx.generate(problems)
        inputs.write_schedule(ctx.path("load.tsv"), trace)
        inputs.write_schedule(ctx.path("latency-phase.tsv"),
                              [r for r in trace if r[2] == latency_phase])
        inputs.write_schedule(ctx.path("warm.tsv"), [(0, line, "warm") for line in warm])
        inputs.write_lines(ctx.path("warm.txt"), warm)
        ctx.server = procs.Server(ctx.bins["rts_serve"], ctx.run_dir,
                                  ["--threads", str(SERVE_WORKERS),
                                   "--queue-capacity", str(SERVE_QUEUE)], tag)
        ctx.server.wait_listening()
        warm_rows = run_load(ctx, "warm.tsv", f"warm-{tag}.out", 1) if warm else []
        return time.perf_counter() - start, warm_rows

    setups = []
    try:
        for k in range(1 if ctx.trace else SETUPS):
            if k:
                ctx.server.stop()
            seconds, warm_rows = set_up(str(k))
            setups.append(seconds)
        rows = run_load(ctx, "latency-phase.tsv" if ctx.trace else "load.tsv",
                        "load.out", conns)
        peak_rss = ctx.server.peak_rss_mb()
        server_stats = ctx.server.stop()
    finally:
        if ctx.server is not None:
            ctx.server.kill()

    # Classify every response; only "ok" lines carry solver output.
    by_phase = {}
    answered = []
    for (due, sent, recv, response), (_d, line, phase) in zip(rows, trace):
        status, error, hit = classify(response)
        by_phase.setdefault(phase, []).append((due, sent, recv, status, error, hit, line))
        if status == "ok":
            answered.append((line, response, hit, phase))
    warm_answers = []
    for (_due, _sent, _recv, response), line in zip(warm_rows, warm):
        status, _error, hit = classify(response)
        if status == "ok":
            warm_answers.append((line, response, hit, "warm"))
    if warm:
        res.check("warm-up requests ok", len(warm_answers) == len(warm),
                  f"{len(warm_answers)} of {len(warm)}")

    # Every ok line must equal the in-process reference for its request.
    distinct = sorted({line for line, _, _, _ in answered + warm_answers})
    inputs.write_lines(ctx.path("ref-requests.txt"), distinct)
    ctx.harness("reference", "--requests", ctx.path("ref-requests.txt"), "--out",
                ctx.path("ref-lines.txt"))
    with open(ctx.path("ref-lines.txt")) as f:
        reference = dict(zip(distinct, (line.rstrip("\n") for line in f)))
    wrong = sum(1 for line, response, _, _ in answered + warm_answers
                if normalized(response) != reference[line])
    expect_hit = name == "serve-hit"
    flag_mismatch = sum(1 for _, _, hit, phase in answered if hit != expect_hit)
    flag_mismatch += sum(1 for _, _, hit, _ in warm_answers if hit)
    res.check("ok lines equal the in-process reference", wrong == 0,
              f"{wrong} of {len(answered) + len(warm_answers)} differ")
    res.check("cache_hit flags as the workload intends", flag_mismatch == 0,
              f"{flag_mismatch} unexpected flags")

    # Latency phase: every request counts; a miss of any kind is +inf.
    lat_rows = by_phase[latency_phase]
    lat = [(recv - due) / 1e6 if status == "ok" else float("inf")
           for (due, _sent, recv, status, _e, _h, _l) in lat_rows]
    misses = sum(1 for v in lat if v == float("inf"))
    statuses = [row[3] for phase_rows in by_phase.values() for row in phase_rows]
    res.check("no response lost", statuses.count("lost") == 0,
              f"{statuses.count('lost')} unanswered")
    res.check("no request failed", statuses.count("failed") == 0,
              f"{statuses.count('failed')} failed")
    res.check("latency phase supports p99", stats.tail_supported(len(lat), 99),
              f"{len(lat)} samples")
    p50 = stats.percentile(lat, 50)
    p99 = stats.percentile(lat, 99)
    # The generator's own lateness, per phase; the latency phase's must stay
    # within the bound for its latencies to mean anything.
    for phase, phase_rows in by_phase.items():
        late = [(sent - due) / 1e6 for (due, sent, *_rest) in phase_rows]
        late99 = stats.percentile(late, 99)
        res.note(f"generator lateness ({phase}) p50 {stats.percentile(late, 50):.4f} ms, "
                 f"p99 {late99:.4f} ms, max {max(late):.4f} ms over {len(late)} sends "
                 f"({conns} connections, one poll loop)")
        if phase == latency_phase:
            bound = max(LATENESS_P99_FLOOR_MS, LATENESS_P99_SHARE * p50)
            res.environment_ok = late99 <= bound
            res.note(f"check {'ok  ' if res.environment_ok else 'FAIL'} load generator on "
                     f"time: lateness p99 {late99:.3f} ms, bound {bound:.3f} ms")
    res.attempted += len(trace)
    res.failed += misses + wrong
    res.note(f"latency_p50_ms = {p50:.4f} ms over {len(lat)} requests at "
             f"{'Poisson' if name == 'serve-solve' else 'fixed-rate'} "
             f"{len(lat) / ((lat_rows[-1][0] - lat_rows[0][0]) / 1e9):.1f} rps offered "
             f"({misses} rejected/failed/lost, counted as +inf)")
    res.note(f"latency_p99_ms = {p99:.4f} ms over {len(lat)} requests "
             f"({stats.samples_beyond(len(lat), 99)} beyond it)")

    if "overload" in by_phase:
        over = by_phase["overload"]
        ok = sum(1 for r in over if r[3] == "ok")
        shed = sum(1 for r in over if r[3] == "rejected")
        broken = sum(1 for r in over if r[3] not in ("ok", "rejected"))
        span_s = (over[-1][0] - lat_rows[-1][0]) / 1e9
        res.failed += broken
        res.check("overload phase sheds", shed > 0, f"{shed} rejected")
        res.note(f"goodput_rps = {ok / span_s:.3f} 1/s ({ok} ok over {span_s:.3f} s "
                 f"at {len(over) / span_s:.0f} rps offered)")
        res.note(f"shed_share = {shed / len(over):.5f} ratio ({shed} rejected / "
                 f"{len(over)} sent; {broken} failed or lost)")

    # The server's drained counters must reconcile with the client's view.
    s = server_stats
    sent_total = len(trace) + len(warm)
    resolved = s["hits"] + s["solved"] + s["coalesced"]
    client = {}
    for row in (r for phase_rows in by_phase.values() for r in phase_rows):
        key = row[3] if row[3] != "rejected" else row[4]
        client[key] = client.get(key, 0) + 1
    client["ok"] = client.get("ok", 0) + len(warm_answers)
    res.check("closure submitted == rejected + hits + solved + coalesced",
              s["submitted"] == s["rejected"] + resolved,
              f"{s['submitted']} == {s['rejected']} + {s['hits']} + {s['solved']} + "
              f"{s['coalesced']}")
    res.check("server saw every request the client sent",
              s["submitted"] + s["quota_rejected"] == sent_total,
              f"submitted {s['submitted']} + quota_rejected {s['quota_rejected']} vs "
              f"sent {sent_total}")
    res.check("server ok/failed/rejected match the client's",
              (s["completed"], s["failed"], s["rejected"]) ==
              (client.get("ok", 0), client.get("failed", 0),
               client.get("overloaded", 0) + client.get("shutting_down", 0)),
              f"server {s['completed']}/{s['failed']}/{s['rejected']} vs client {client}")
    hit_ratio, base = layers.replay_hit_ratio(s, len(warm))
    band_ok = hit_ratio <= 0.01 if name == "serve-solve" else hit_ratio >= 0.99
    res.check("hit ratio in the workload's band", band_ok,
              f"{hit_ratio:.5f} = {base} "
              f"(band {'<= 0.01' if name == 'serve-solve' else '>= 0.99'})")

    res.metrics["setup_s"] = (stats.median(setups), "s")
    res.metrics["latency_p50_ms"] = (p50, "ms")
    res.metrics["peak_rss_mb"] = (peak_rss, "MB")
    res.note(f"setup_s = median of {len(setups)} set-ups: "
             + ", ".join(f"{v:.4f}" for v in setups))

    if ctx.trace:
        args = ["trace-serve", "--schedule", ctx.path("latency-phase.tsv"),
                "--problems", ctx.path("problems.tsv"), "--workers", SERVE_WORKERS,
                "--queue-capacity", SERVE_QUEUE, "--out", ctx.path("trace.tsv")]
        if warm:
            args += ["--warm", ctx.path("warm.txt")]
        ctx.harness(*args)
        rec = layers.Records(ctx.path("trace.tsv"))
        res.layer = layers.serve_layers(rec, p50, server_stats, len(warm))
    return res


# --------------------------------------------------------------------------
# Offline workloads

def round_robin(ctx, count, job):
    """Run job(i, r) over problems i = 0..count-1 in turn (r counts the
    rounds) until --seconds have passed: at least two rounds, or one round
    when tracing. Returns each problem's list of job results."""
    per_problem = [[] for _ in range(count)]
    start = time.perf_counter()
    k = 0
    while k < count * (1 if ctx.trace else 2) or (
            not ctx.trace and time.perf_counter() - start < ctx.seconds):
        per_problem[k % count].append(job(k % count, k // count))
        k += 1
    return per_problem


def mean_of_medians(per_problem, pick):
    """Mean over problems of the median of pick(result): costs differ per
    problem, so each problem weighs the same whatever its run count."""
    return sum(stats.median([pick(r) for r in runs]) for runs in per_problem) / len(per_problem)


def setup_problems(ctx, specs, res):
    times = []
    for _ in range(1 if ctx.trace else SETUPS):
        start = time.perf_counter()
        ctx.generate(specs)
        times.append(time.perf_counter() - start)
    res.metrics["setup_s"] = (stats.median(times), "s")
    res.note(f"setup_s = median of {len(times)} set-ups: " + ", ".join(f"{v:.4f}" for v in times))


def same_bytes(paths):
    first = open(paths[0], "rb").read()
    return all(open(p, "rb").read() == first for p in paths[1:])


def offline_10k(ctx):
    spec = WORKLOADS["offline-10k"]
    res = Result()
    count = spec["problems"]
    problems = inputs.problem_specs(ctx.seed, "offline-10k", count, spec["tasks"],
                                    PAPER_PROCS)
    ga_seed = inputs.derived_seed(ctx.seed, "offline-10k/ga")
    mc_seed = inputs.derived_seed(ctx.seed, "offline-10k/mc")
    setup_problems(ctx, problems, res)
    rts = ctx.bins["rts"]

    def job(i, r):
        problem, sched, report = problems[i][0], f"sched-{i}-{r}.rts", f"eval-{i}-{r}.json"
        s_wall, s_rss = procs.run_timed(
            [rts, "schedule", "--problem", problem, "--algo", "ga", "--epsilon",
             str(spec["epsilon"]), "--iters", str(spec["iters"]), "--seed", str(ga_seed),
             "--out", sched], ctx.run_dir)
        e_wall, e_rss = procs.run_timed(
            [rts, "evaluate", "--problem", problem, "--schedule", sched,
             "--realizations", str(spec["realizations"]), "--seed", str(mc_seed),
             "--json", report], ctx.run_dir)
        return s_wall, e_wall, max(s_rss, e_rss)

    per_problem = round_robin(ctx, count, job)
    res.attempted = sum(len(runs) for runs in per_problem)
    for name in ("sched-{i}-{r}.rts", "eval-{i}-{r}.json"):
        res.check(f"every {name.split('-')[0]} output is byte-identical per problem", all(
            same_bytes([ctx.path(name.format(i=i, r=r)) for r in range(len(runs))])
            for i, runs in enumerate(per_problem)))
    try:
        for i in range(count):
            ctx.harness("check-offline", "--problem", problems[i][0], "--schedule",
                        f"sched-{i}-0.rts", "--eval-json", f"eval-{i}-0.json",
                        "--realizations", spec["realizations"], "--mc-seed", mc_seed)
        res.check("schedules valid and evaluate reports equal the in-process ones", True)
    except procs.ProcessError as e:
        res.check("schedules valid and evaluate reports equal the in-process ones", False,
                  str(e))
    latency = mean_of_medians(per_problem, lambda j: j[0] + j[1])
    res.metrics["latency_p50_ms"] = (latency * 1e3, "ms")
    res.metrics["peak_rss_mb"] = (max(j[2] for runs in per_problem for j in runs), "MB")
    res.note(f"latency_p50_ms = mean over {count} problems of the median schedule+evaluate "
             f"job ({res.attempted} jobs, round robin)")
    res.note(f"schedule_s = {mean_of_medians(per_problem, lambda j: j[0]):.4f} s "
             f"(`rts schedule --algo ga --iters {spec['iters']}` wall, same averaging)")
    res.note(f"evaluate_s = {mean_of_medians(per_problem, lambda j: j[1]):.4f} s "
             f"(`rts evaluate --realizations {spec['realizations']}` wall, same averaging)")
    problem = problems[0][0]
    if ctx.trace:
        ctx.harness("trace-offline", "--problem", problem, "--problems",
                    ctx.path("problems.tsv"), "--schedule", "sched-0-0.rts", "--epsilon",
                    spec["epsilon"], "--iters", spec["iters"], "--seed", ga_seed,
                    "--realizations", spec["realizations"], "--mc-seed", mc_seed, "--out",
                    ctx.path("trace.tsv"))
        res.layer = layers.offline_layers(layers.Records(ctx.path("trace.tsv")))
    return res


def offline_resched(ctx):
    spec = WORKLOADS["offline-resched"]
    res = Result()
    count = spec["problems"]
    problems = inputs.problem_specs(ctx.seed, "offline-resched", count, PAPER_TASKS,
                                    PAPER_PROCS)
    seeds = [inputs.derived_seed(ctx.seed, f"offline-resched/{i}") for i in range(count)]
    setup_problems(ctx, problems, res)

    def job(i, r):
        return procs.run_timed(
            [ctx.bins["rts"], "resched", "--problem", problems[i][0], "--oversub",
             str(spec["oversub"]), "--drop", "probabilistic", "--seed", str(seeds[i]),
             "--json", f"resched-{i}-{r}.json"], ctx.run_dir)

    per_problem = round_robin(ctx, count, job)
    res.attempted = sum(len(runs) for runs in per_problem)
    res.check("every resched report is byte-identical per problem", all(
        same_bytes([ctx.path(f"resched-{i}-{r}.json") for r in range(len(runs))])
        for i, runs in enumerate(per_problem)))
    try:
        for i in range(count):
            ctx.harness("check-resched", "--problem", problems[i][0], "--seed", seeds[i],
                        "--oversub", spec["oversub"], "--json", f"resched-{i}-0.json")
        res.check("resched reports equal the in-process ones", True)
    except procs.ProcessError as e:
        res.check("resched reports equal the in-process ones", False, str(e))
    latency = mean_of_medians(per_problem, lambda j: j[0])
    res.metrics["latency_p50_ms"] = (latency * 1e3, "ms")
    res.metrics["peak_rss_mb"] = (max(j[1] for runs in per_problem for j in runs), "MB")
    res.note(f"latency_p50_ms = mean over {count} problems of the median `rts resched` "
             f"wall ({res.attempted} runs, round robin)")
    res.note(f"resched_s = {latency:.4f} s (the same figure in seconds)")
    problem, seed = problems[0][0], seeds[0]
    if ctx.trace:
        ctx.harness("trace-resched", "--problem", problem, "--problems",
                    ctx.path("problems.tsv"), "--seed", seed, "--oversub", spec["oversub"],
                    "--out", ctx.path("trace.tsv"))
        rec = layers.Records(ctx.path("trace.tsv"))
        res.layer = layers.resched_layers(rec)
        with open(ctx.path("resched-0-0.json")) as f:
            cli = json.load(f)["resched"]
        for metric, key in (("resched.resolves", "mean_resolves"),
                            ("resched.dropped", "mean_dropped"),
                            ("resched.ga_generations", "mean_ga_iterations")):
            ours = res.layer.values[metric]
            res.check(f"traced {metric} matches the CLI's {key}",
                      abs(ours - cli[key]) <= 1e-9 * max(1.0, abs(cli[key])),
                      f"{ours} vs {cli[key]}")
    return res


RUNNERS = {
    "serve-solve": lambda ctx: serve(ctx, "serve-solve"),
    "serve-hit": lambda ctx: serve(ctx, "serve-hit"),
    "offline-10k": offline_10k,
    "offline-resched": offline_resched,
}
