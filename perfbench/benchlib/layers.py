"""Per-layer metrics of a traced run, derived from the harness's records.

The harness (`rts_perfbench trace-*`) writes spans, counts and in-process
request times; this module turns them into the per-layer metrics named in
BENCHMARK.json. Every ratio comes with its base, and a metric whose layer a
workload does not exercise is reported as 0 with base 0.
"""

from . import stats

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("net.frame_us", "us"),
    ("net.parse_us", "us"),
    ("net.render_us", "us"),
    ("net.transport_ms", "ms"),
    ("net.bytes_in", "bytes"),
    ("net.bytes_out", "bytes"),
    ("service.digest_us", "us"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.solve_inflation", "ratio"),
    ("service.hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.rejected", "count"),
    ("sched.heft_ms", "ms"),
    ("ga.run_ms", "ms"),
    ("ga.generations", "count"),
    ("ga.generation_us", "us"),
    ("ga.cpu_per_wall", "ratio"),
    ("sim.mc_ms", "ms"),
    ("sim.realizations_per_s", "1/s"),
    ("workload.load_ms", "ms"),
    ("workload.generate_ms", "ms"),
    ("resched.replay_ms", "ms"),
    ("resched.completion_mc_ms", "ms"),
    ("resched.resolves", "count"),
    ("resched.ga_generations", "count"),
    ("resched.dropped", "count"),
    ("trace.overhead_ms", "ms"),
]


class Records:
    """Parsed output of one `rts_perfbench trace-*` run."""

    def __init__(self, path):
        self.spans = {}        # id -> (parent, request, name, start_ns, end_ns)
        self.counts = []       # (request, name, value)
        self.latency = {0: [], 1: []}  # mode -> [(request, due_ns, done_ns, hit)]
        self.walls = {}        # mode -> (wall_ns, units)
        with open(path) as f:
            for row in f:
                cols = row.rstrip("\n").split("\t")
                kind = cols[0]
                if kind == "S":
                    self.spans[int(cols[1])] = (int(cols[2]), int(cols[3]), cols[4],
                                                int(cols[5]), int(cols[6]))
                elif kind == "C":
                    self.counts.append((int(cols[1]), cols[2], float(cols[3])))
                elif kind == "L":
                    self.latency[int(cols[1])].append(
                        (int(cols[2]), int(cols[3]), int(cols[4]), cols[5] == "1"))
                elif kind == "W":
                    self.walls[int(cols[1])] = (int(cols[2]), int(cols[3]))
        self.self_ns = stats.self_times(self.spans)

    def durations(self, name, requests=None):
        """Durations (ns) of the spans called `name`, optionally only those
        of the given request ids."""
        return [end - start for (_p, req, n, start, end) in self.spans.values()
                if n == name and (requests is None or req in requests)]

    def self_durations(self, name):
        return [self.self_ns[sid] for sid, span in self.spans.items() if span[2] == name]

    def count_values(self, name):
        return [value for (_req, n, value) in self.counts if n == name]

    def count_by_request(self, name):
        return {req: value for (req, n, value) in self.counts if n == name}

    def inprocess_latencies_ms(self, mode):
        """In-process request latencies (ms) from due time; inf if shed."""
        return [(done - due) / 1e6 if done >= 0 else float("inf")
                for (_req, due, done, _hit) in self.latency[mode]]


def _p50(values, scale):
    return stats.percentile(values, 50) / scale if values else 0.0


class LayerReport:
    """Per-layer metric values plus a printable base for each."""

    def __init__(self):
        self.values = {name: 0.0 for name, _ in PER_LAYER}
        self.bases = {name: "n/a on this workload (base 0)" for name, _ in PER_LAYER}

    def set(self, name, value, base):
        assert name in self.values, name
        self.values[name] = float(value)
        self.bases[name] = base

    def metrics(self):
        return {name: {"value": self.values[name], "unit": unit} for name, unit in PER_LAYER}

    def lines(self):
        return [f"layer {name} = {self.values[name]:.6g} {unit}  [{self.bases[name]}]"
                for name, unit in PER_LAYER]


def add_workload_layer(rep, rec):
    gen = rec.durations("workload.generate")
    load = rec.durations("workload.load")
    rep.set("workload.generate_ms", _p50(gen, 1e6), f"p50 of {len(gen)} make_paper_instance calls")
    rep.set("workload.load_ms", _p50(load, 1e6), f"p50 of {len(load)} load_problem_file calls")


def add_solver_layers(rep, rec, requests=None):
    """sched/ga/sim metrics from the stage-by-stage spans."""
    heft = rec.durations("sched.heft", requests)
    if heft:
        rep.set("sched.heft_ms", _p50(heft, 1e6), f"p50 of {len(heft)} heft_schedule calls")
    ga = rec.durations("ga.run", requests)
    if ga:
        gens = sum(rec.count_values("ga.generations"))
        cpu = sum(rec.count_values("ga.cpu_ns"))
        wall = sum(ga)
        rep.set("ga.run_ms", _p50(ga, 1e6), f"p50 of {len(ga)} run_ga calls")
        rep.set("ga.generations", gens / len(ga), f"{gens:.0f} generations / {len(ga)} calls")
        rep.set("ga.generation_us", wall / gens / 1e3 if gens else 0.0,
                f"{wall / 1e6:.1f} ms run_ga wall / {gens:.0f} generations")
        rep.set("ga.cpu_per_wall", cpu / wall,
                f"{cpu / 1e6:.1f} ms process CPU / {wall / 1e6:.1f} ms run_ga wall")
    mc = rec.durations("sim.mc", requests)
    if mc:
        reals = sum(rec.count_values("sim.realizations"))
        rep.set("sim.mc_ms", _p50(mc, 1e6), f"p50 of {len(mc)} evaluate_robustness calls")
        rep.set("sim.realizations_per_s", reals / (sum(mc) / 1e9),
                f"{reals:.0f} realizations / {sum(mc) / 1e6:.1f} ms")


def replay_hit_ratio(server_stats, warm_solves):
    """Cache hits / (hits + solved + coalesced) from the server's drained
    counters, leaving out the set-up's warm-up solves; returns the ratio and
    its base as text."""
    s = server_stats
    base = s["hits"] + s["solved"] + s["coalesced"] - warm_solves
    ratio = s["hits"] / base if base > 0 else 0.0
    return ratio, (f"hits {s['hits']} / (hits {s['hits']} + solved {s['solved']} + "
                   f"coalesced {s['coalesced']} - warm-up {warm_solves}) {base}, "
                   f"server counters")


def serve_layers(rec, socket_p50_ms, server_stats, warm_solves):
    rep = LayerReport()
    add_workload_layer(rep, rec)
    n = len(rec.latency[1])
    for metric, span in (("net.frame_us", "net.frame"), ("net.parse_us", "net.parse"),
                         ("net.render_us", "net.render"),
                         ("service.digest_us", "service.digest")):
        values = rec.self_durations(span)
        rep.set(metric, _p50(values, 1e3), f"p50 self time over {len(values)} requests")
    inproc = rec.inprocess_latencies_ms(0)
    inproc_p50 = stats.percentile(inproc, 50)
    rep.set("net.transport_ms", socket_p50_ms - inproc_p50,
            f"socket p50 {socket_p50_ms:.4f} ms - in-process p50 {inproc_p50:.4f} ms")
    for metric, name in (("net.bytes_in", "net.bytes_in"), ("net.bytes_out", "net.bytes_out")):
        values = rec.count_values(name)
        rep.set(metric, sum(values) / len(values), f"mean over {len(values)} requests")
    waits = rec.durations("service.queue_wait")
    rep.set("service.queue_wait_p50_ms", _p50(waits, 1e6), f"p50 over {len(waits)} requests")
    if stats.tail_supported(len(waits), 99):
        rep.set("service.queue_wait_p99_ms", stats.percentile(waits, 99) / 1e6,
                f"p99 over {len(waits)} requests "
                f"({stats.samples_beyond(len(waits), 99)} beyond)")
    hits = rec.count_by_request("service.cache_hit")
    leaders = {req for req, hit in hits.items() if hit == 0.0}
    solve = rec.durations("service.solve", leaders)
    if solve:
        rep.set("service.solve_ms", _p50(solve, 1e6), f"p50 over {len(solve)} solved requests")
        staged = rec.durations("solve", leaders)
        if staged:
            ratio = stats.percentile(solve, 50) / stats.percentile(staged, 50)
            rep.set("service.solve_inflation", ratio,
                    f"service solve p50 {_p50(solve, 1e6):.3f} ms / serial stage-sum p50 "
                    f"{_p50(staged, 1e6):.3f} ms over {len(staged)} requests")
    s = server_stats
    rep.set("service.hit_ratio", *replay_hit_ratio(s, warm_solves))
    rep.set("service.coalesced", s["coalesced"], "server counter")
    rep.set("service.rejected", s["rejected"], "server counter")
    add_solver_layers(rep, rec)
    traced = stats.percentile(rec.inprocess_latencies_ms(1), 50)
    rep.set("trace.overhead_ms", traced - inproc_p50,
            f"traced in-process p50 {traced:.4f} ms - untraced p50 {inproc_p50:.4f} ms "
            f"over {n} requests")
    return rep


def offline_layers(rec):
    rep = LayerReport()
    add_workload_layer(rep, rec)
    add_solver_layers(rep, rec)
    untraced, traced = rec.walls[0][0], rec.walls[1][0]
    rep.set("trace.overhead_ms", (traced - untraced) / 1e6,
            f"traced pipeline {traced / 1e6:.1f} ms - untraced {untraced / 1e6:.1f} ms")
    return rep


def resched_layers(rec):
    rep = LayerReport()
    add_workload_layer(rep, rec)
    add_solver_layers(rep, rec)
    replay = rec.durations("resched.replay")
    rep.set("resched.replay_ms", _p50(replay, 1e6),
            f"p50 of {len(replay)} run_online_reschedule calls (one per realization)")
    mc = rec.durations("resched.completion_mc")
    rep.set("resched.completion_mc_ms", _p50(mc, 1e6),
            f"p50 of {len(mc)} sample_completion_finishes calls")
    for metric in ("resched.resolves", "resched.ga_generations", "resched.dropped"):
        values = rec.count_values(metric)
        rep.set(metric, sum(values) / len(values),
                f"{sum(values):.0f} over {len(values)} realizations")
    (untraced, units), (traced, _) = rec.walls[0], rec.walls[1]
    rep.set("trace.overhead_ms", (traced - untraced) / units / 1e6,
            f"per realization: traced {traced / 1e6:.1f} ms - untraced "
            f"{untraced / 1e6:.1f} ms over {units}")
    return rep
