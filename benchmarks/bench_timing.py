"""Timing helper shared by the benchmarks that compare wall-clock floors."""

from __future__ import annotations

import time


def interleaved_best(
    fns,
    pairs,
    min_repeats: int = 7,
    max_repeats: int = 60,
    converge: float = 0.015,
    rounds: list | None = None,
) -> tuple[list[float], bool]:
    """Best-of wall-clock per candidate with *interleaved* repeats.

    Interleaving means slow drift (thermal throttling, background load)
    hits every candidate in the same round, and the in-round order
    rotates each round so no candidate systematically rides a
    periodic-load pattern; the per-candidate minimum is the floor
    estimator.  Each ``(i, j)`` in ``pairs`` names two candidates
    running the *same* workload (an A/A pair): rounds continue past
    ``min_repeats`` until every pair's minima agree within ``converge``,
    so ratios between floors measure code, not scheduler luck — per-run
    noise on a loaded box runs several percent, while the floors of
    identical code converge given enough samples (minima only ever
    improve).  Returns ``(floors, converged)``; a ``False`` flag means
    the box was too noisy to resolve ``converge`` within
    ``max_repeats`` rounds.  A ``rounds`` list, if given, receives each
    timed round's walls in candidate order, for spreads over blocks of
    the same rounds."""
    best = [float("inf")] * len(fns)
    for fn in fns:  # warm caches/allocators outside the timed rounds
        fn()
    converged = False
    for r in range(max_repeats):
        walls = [0.0] * len(fns)
        for i in range(len(fns)):
            j = (i + r) % len(fns)
            t0 = time.perf_counter()
            fns[j]()
            walls[j] = time.perf_counter() - t0
            best[j] = min(best[j], walls[j])
        if rounds is not None:
            rounds.append(walls)
        converged = r + 1 >= min_repeats and all(
            max(best[i], best[j]) / min(best[i], best[j]) - 1 < converge
            for i, j in pairs
        )
        if converged:
            break
    return best, converged
