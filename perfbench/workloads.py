"""Workloads of the layered study benchmark.

Every workload is a fixed list of rstokes CLI studies taken from the
acceptance suite (tests/test_acceptance.py), cut down where noted so that
a run holds several samples; none has random input.  The
benchmark seed only permutes the order in which a workload's studies run.
Each study is its own cold process, so the order changes no value and no
per-process memory figure.  Why each workload was chosen is in
BENCHMARK.json (`why`) and layer_map.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Study:
    """One `rstokes` invocation, identified by the name of its expected rows."""

    id: str
    argv: tuple[str, ...]


def _study(id: str, **flags: str) -> Study:
    return Study(id, tuple(tok for flag, value in flags.items() for tok in (f"--{flag}", value)))


_STEPS = "5,10,20,40,80"

# Each workload is cut so that one sample (all its studies once) takes 2-4 s
# on a 2-vCPU host: a run then holds several samples and reports their
# median, which single-process time noise of 20-30% per study requires.
WORKLOADS: dict[str, tuple[Study, ...]] = {
    # acceptance T5(b) at t = 1e-6 only: 6,330 reference modes on 64 cells,
    # oracle.eval leads oracle.factors as in the full T5(b); the full study
    # (six times, 10^4 modes) takes 25-34 s per sample
    "blowup_step": (
        _study("t5b_blowup", example="b", scheme="sbd", study="blowup", alpha="0.5",
               k="6", N="1000", t="1e-6"),
    ),
    # acceptance T3 at alpha = 0.5: 2,047 unknowns, 20,480 eval_points calls
    "temporal_step": tuple(
        _study(f"t3_{scheme}", example="b", scheme=scheme, study="temporal", alpha="0.5",
               k="11", N=_STEPS, t="0.1")
        for scheme in ("be", "sbd")
    ),
    # acceptance T8 BE with N up to 40: 2D, eval_grid over 10^4 mode pairs
    # and sparse LU on 16,129 unknowns
    "square_2d": (
        _study("t8_be", example="d", scheme="be", study="temporal", alpha="0.5",
               k="7", N="5,10,20,40", t="0.1"),
    ),
    # smooth datum (2 reference modes): the O(N^2 dof) history sum dominates
    "fine_tau": (
        _study("fine_tau", example="a", scheme="sbd", study="temporal", alpha="0.5",
               k="11", N="250,500", t="0.1"),
    ),
}


def plan(workload: str, seed: int) -> list[Study]:
    """The workload's studies in seed order."""
    studies = list(WORKLOADS[workload])
    random.Random(seed).shuffle(studies)
    return studies
