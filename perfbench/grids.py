"""Seeded inputs of the four workloads.

Every scenario seed derives from the workload seed, so one ``--seed``
always yields the same inputs and two seeds never share a scenario.
Sizes scale with ``--seconds`` through fixed per-workload constants
chosen on a 2-vCPU host, never through a rate measured at run time, so
the work done by a run depends only on its arguments.

Each warm-up grid uses system sizes the timed grid does not: the
backend's skeleton cache is keyed by the stable skeleton, which depends
on ``n``, so the timed run starts with a cold cache, as a user's does.
"""

from __future__ import annotations

import random

from repro.engine.scenarios import ScenarioSpec

#: Scenario-seed space owned by one workload seed.
SEED_STRIDE = 10_000_000
#: Offsets inside that space, one per input family.
_LARGE, _SMALL, _FLEET = 0, 1_000_000, 3_000_000
_SERVED, _WARM = 5_000_000, 9_000_000

NOISES = (0.0, 0.15, 0.3, 0.45)
SMALL_ADVERSARIES = ("grouped", "grouped", "crash", "partition", "static")


def _base(seed: int, offset: int) -> int:
    return seed * SEED_STRIDE + offset


def hetero_lane(n: int, i: int, seed: int) -> ScenarioSpec:
    """Lane ``i`` of the HETERO-LAT mix: per six lanes, four sweep the
    noise and decide near round ``n + 4``, one runs with a shrunk purge
    window and one without pruning runs to its full ``6n + 20`` budget."""
    if i % 6 == 5:
        return ScenarioSpec(n=n, k=2, num_groups=2, seed=seed, noise=0.35,
                            options=(("prune_unreachable", False),))
    if i % 6 == 4:
        return ScenarioSpec(n=n, k=2, num_groups=2, seed=seed, noise=0.35,
                            options=(("purge_window", max(1, n // 2)),))
    return ScenarioSpec(n=n, k=2, num_groups=2, seed=seed,
                        noise=NOISES[i % 4])


def segments_for(seconds: float) -> int:
    """How many equal segments a timed in-process or fleet run is cut
    into (about two seconds each on the reference host)."""
    return max(2, round(seconds / 2))


def large_n(seed: int, seconds: float) -> list[list[ScenarioSpec]]:
    """HETERO-LAT ensembles at n = 24 and 32 (one 256-round bucket) plus
    an early-deciding n = 48 lane, per segment.  Each size's results land
    in one burst, so the mix (a third at n = 24, then n = 32) keeps the
    latency median and p90 inside the n = 32 burst, not on the edge
    between two bursts."""
    segments = []
    for j in range(segments_for(seconds)):
        base = _base(seed, _LARGE) + 100 * j
        specs = [hetero_lane(24, i, base + i) for i in range(6)]
        specs += [hetero_lane(32, i, base + i) for i in range(12)]
        specs.append(ScenarioSpec(n=48, k=2, num_groups=2, seed=base,
                                  noise=NOISES[j % 4]))
        segments.append(specs)
    return segments


def large_n_warmup(seed: int) -> list[ScenarioSpec]:
    """One lane of each HETERO-LAT kind at n = 16 and at n = 20."""
    base = _base(seed, _WARM)
    return [hetero_lane(n, i, base + i) for n in (16, 20) for i in range(6)]


def small_spec(n: int, k: int, adversary: str, variant: int,
               seed: int) -> ScenarioSpec:
    if adversary == "grouped":
        return ScenarioSpec(n=n, k=k, num_groups=k, seed=seed,
                            noise=(0.0, 0.1, 0.2, 0.3)[variant % 4])
    if adversary == "crash":
        return ScenarioSpec(n=n, k=k, seed=seed, adversary="crash",
                            options=(("f", k),))
    if adversary == "partition":
        return ScenarioSpec(n=n, k=k, seed=seed, adversary="partition")
    return ScenarioSpec(n=n, k=k, seed=seed, adversary="static",
                        noise=(0.1, 0.3)[variant % 2])


def small_n(seed: int, count: int, fleet: bool = False,
            ns: tuple[int, ...] = (4, 5, 6, 7, 8),
            offset: int | None = None) -> list[ScenarioSpec]:
    """``count`` scenarios cycling through n = 4..8, k = 1..3 and the
    grouped (noise sweep), crash, partition and static adversaries; the
    fleet draws the same shape from its own seed range."""
    if offset is None:
        offset = _FLEET if fleet else _SMALL
    base = _base(seed, offset)
    cells = len(ns) * 3
    return [
        small_spec(
            ns[i % len(ns)],
            1 + (i // len(ns)) % 3,
            SMALL_ADVERSARIES[(i // cells) % len(SMALL_ADVERSARIES)],
            i // (cells * len(SMALL_ADVERSARIES)),
            base + i,
        )
        for i in range(count)
    ]


def small_n_segments(seed: int, seconds: float, per_second: int,
                     fleet: bool = False) -> list[list[ScenarioSpec]]:
    """The small-n grid cut into :func:`segments_for` equal segments;
    the cycle length (75) divides every segment, so all share one mix."""
    count = segments_for(seconds)
    size = 75 * max(2, round(per_second * seconds / count / 75))
    specs = small_n(seed, size * count, fleet=fleet)
    return [specs[j * size:(j + 1) * size] for j in range(count)]


def small_n_warmup(seed: int) -> list[ScenarioSpec]:
    return small_n(seed, 150, ns=(9, 10), offset=_WARM + 1000)


#: Open-loop submission rate of the served workload, per second — about
#: 40% of what a ``--jobs 1 --slots 1`` daemon completes on a 2-vCPU host.
SERVED_RATE = 7.0
#: Every PROBE_EVERY-th gap of the served schedule is PROBE_GAP_S longer:
#: a window, about once a second, in which the daemon has finished the
#: work sent so far and the client can time a host-speed probe.
PROBE_EVERY = 7
PROBE_GAP_S = 0.25


def served_submission(rng: random.Random, base: int) -> list[ScenarioSpec]:
    """16-32 scenarios at n = 6..12 with the small-n adversary mix."""
    specs = []
    for j in range(rng.randint(16, 32)):
        specs.append(
            small_spec(
                rng.randint(6, 12),
                rng.randint(1, 3),
                rng.choice(SMALL_ADVERSARIES),
                rng.randrange(4),
                base + j,
            )
        )
    return specs


def served(seed: int,
           seconds: float) -> tuple[list[float], list[list[ScenarioSpec]]]:
    """The open-loop schedule: due offsets (seconds from the schedule's
    start) and the scenarios of each submission.  Submissions are evenly
    spaced at :data:`SERVED_RATE` with a seeded jitter of a fifth of the
    interval either way, so bursts never pile up faster than the rate,
    plus a probe window before every :data:`PROBE_EVERY`-th one."""
    rng = random.Random(_base(seed, _SERVED))
    count = max(1, round(SERVED_RATE * seconds))
    due, subs = [], []
    for i in range(count):
        due.append((i + rng.uniform(-0.2, 0.2)) / SERVED_RATE + 0.05
                   + (i // PROBE_EVERY) * PROBE_GAP_S)
        subs.append(served_submission(rng, _base(seed, _SERVED) + 1000 * i))
    return due, subs


def served_warmup(seed: int) -> list[ScenarioSpec]:
    rng = random.Random(_base(seed, _WARM) + 1)
    return [
        small_spec(rng.choice((13, 14)), rng.randint(1, 3),
                   rng.choice(SMALL_ADVERSARIES), rng.randrange(4),
                   _base(seed, _WARM) + 500 + j)
        for j in range(24)
    ]
