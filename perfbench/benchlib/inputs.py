"""Seeded input generation: problem specs and request traces.

Everything a workload feeds the programs is derived here from the run's
seed, so the same seed gives byte-identical inputs. Problem files are
written by `rts generate` from the specs (path, generator seed, n, m); the
request traces and arrival schedules are written by this module.
"""

import random

# Reserved for confirming a claimed gain on inputs the change was not tuned
# on (see README.md); tuning and routine runs use other seeds.
CONFIRM_SEED = 7919


def _rng(seed, stream):
    # String seeds hash with SHA-512: stable across runs and platforms.
    return random.Random(f"rts-perfbench/{seed}/{stream}")


def problem_specs(seed, stream, count, tasks, procs):
    """`count` problem specs (file name, generator seed, tasks, procs)."""
    rng = _rng(seed, stream)
    return [(f"{stream}-{i}.rts", rng.randrange(1, 2**31), tasks, procs)
            for i in range(count)]


def poisson_dues(rng, rate, count, start_us):
    """Due times (us) of `count` Poisson arrivals at `rate` per second."""
    dues = []
    t = float(start_us)
    for _ in range(count):
        t += rng.expovariate(rate) * 1e6
        dues.append(int(t))
    return dues


def solve_line(problem, ga_seed, mc_seed, epsilon, iters, realizations):
    return (f"{problem} --epsilon {epsilon} --iters {iters} --seed {ga_seed} "
            f"--realizations {realizations} --mc-seed {mc_seed}")


def serve_solve_trace(seed, problems, solve, phases):
    """Distinct-seed solve requests over `problems` with Poisson arrivals.

    `phases` is a list of (name, rate per second, count), run back to back.
    Every request has its own GA seed, so no two share a cache key.
    Returns [(due_us, line, phase name)]."""
    rng = _rng(seed, "serve-solve")
    total = sum(count for _, _, count in phases)
    ga_seeds = rng.sample(range(1, 2**31), total)
    out = []
    start = 0
    k = 0
    for name, rate, count in phases:
        for due in poisson_dues(rng, rate, count, start):
            line = solve_line(rng.choice(problems), ga_seeds[k], rng.randrange(1, 2**31),
                              rng.choice(solve["epsilons"]), solve["iters"],
                              solve["realizations"])
            out.append((due, line, name))
            k += 1
        start = out[-1][0]
    return out


def serve_hit_trace(seed, problems, solve, keys, rate, count):
    """A warm key set and a fixed-rate replay drawn from it.

    Returns (warm lines, [(due_us, line, "replay")]): the warm lines are
    solved during set-up, so every replayed request is a cache hit."""
    rng = _rng(seed, "serve-hit")
    ga_seeds = rng.sample(range(1, 2**31), keys)
    warm = [solve_line(rng.choice(problems), ga_seeds[k], rng.randrange(1, 2**31),
                       rng.choice(solve["epsilons"]), solve["iters"],
                       solve["realizations"])
            for k in range(keys)]
    interval_us = 1e6 / rate
    replay = [(int(i * interval_us), warm[rng.randrange(keys)], "replay")
              for i in range(count)]
    return warm, replay


def derived_seed(seed, stream):
    """A positive 31-bit seed for a program option (GA, MC, resched)."""
    return _rng(seed, stream).randrange(1, 2**31)


def write_schedule(path, trace):
    """Write a load schedule: one `due_us<TAB>request line` per request."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for due, line, _phase in trace:
            f.write(f"{due}\t{line}\n")


def write_lines(path, lines):
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for line in lines:
            f.write(line + "\n")


def write_problem_specs(path, specs):
    """Spec file for the harness: `path<TAB>seed<TAB>tasks<TAB>procs` rows."""
    write_lines(path, [f"{name}\t{gen_seed}\t{tasks}\t{procs}"
                       for name, gen_seed, tasks, procs in specs])
