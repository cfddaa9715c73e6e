"""The three benchmark workloads: how each operation is built and run.

An operation is one call into the package, made in-process by a single
closed-loop client.  Every operation's seed and argv derive from the workload
seed and the operation index alone, so a workload seed fixes the whole input
sequence.  Output files go to a work directory the caller owns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from cubicphase import cli, schemes
from cubicphase.hilbert import coherent

# criterion-4 physics (tests/test_acceptance.py::stats_config) as a CLI config;
# purity_tol has no flag, so it needs the file
HERALD_CONFIG = {
    "gamma": 0.001,
    "N": 2,
    "alpha1": 3.3,
    "transmittance": 0.9734,
    "cutoff": 8,
    "eta": 1.0,
    "dark_rate_hz": 0.0,
    "purity_tol": 3e-2,
    "ensemble": 1,
    "max_attempts": 500,
    "input_alpha": 0.0,
}

# CLI simulate defaults but for three keys.  The per-factor budget is lowered
# so one gate run takes ~50 ms; at ~3.6e-4 clicks per attempt almost every
# factor still exhausts it.  A click late in a factor leaves a purity deficit
# above the default tolerance 1e-4 (up to 2.1e-4 by attempt 400), a known
# defect that run.py reproduces separately; 1e-3 keeps it out of the timed runs.
EXHAUST_CONFIG = {
    "ensemble": 1,
    "max_attempts": 400,
    "purity_tol": 1e-3,
}

DENSE_GAMMA = 0.03
DENSE_ERROR_N = 3
MAREK_R_WIDTH = 1.5
MAREK_CUTOFFS = (30, 40)
MAREK_INPUT_ALPHA = 0.3
# two sweeps per block put the median operation inside one kind's time
# distribution instead of on the gap between two kinds
DENSE_KINDS = ("sweep-variance", "sweep-variance", "error-ensemble", "check-identities", "marek")


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    seed: int
    argv: tuple = ()  # CLI argv; empty for direct calls
    out: str = ""  # CSV path the operation writes, if any


def op_seed(workload_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(workload_seed, spawn_key=(0, index)).generate_state(1)[0])


class Workload:
    """One named workload.  ``op(i)`` is the i-th operation; the first
    ``warmup`` operations are the untimed set-up operations.  The tail latency
    is taken per ``tail_chunk`` consecutive timed operations."""

    name = ""
    warmup = 1
    tail_chunk: int

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir

    def prepare(self) -> None:
        """Write any input files the operations read."""

    def op(self, index: int) -> Op:
        raise NotImplementedError

    @property
    def out(self) -> str:
        return os.path.join(self.workdir, "op.csv")


class RusHerald(Workload):
    """One criterion-4 gate run per operation.  Every factor heralds within a
    few attempts, so per-factor coupling and decoupling carry real weight, and
    the attempt counts can be checked against the quadrature oracle."""

    name = "rus_herald"
    config = HERALD_CONFIG
    tail_chunk = 200

    def prepare(self) -> None:
        self.config_path = os.path.join(self.workdir, f"{self.name}.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k}={v}\n" for k, v in self.config.items())

    def op(self, index: int) -> Op:
        seed, out = op_seed(self.seed, index), self.out
        argv = ("simulate", "--config", self.config_path, "--seed", str(seed), "--out", out)
        return Op(index, "simulate", seed, argv, out)


class RusExhaust(RusHerald):
    """One gate run at the CLI simulate defaults per operation.  Factors
    exhaust their attempt budget, so per-attempt work is nearly all the time
    and per-factor work is not."""

    name = "rus_exhaust"
    config = EXHAUST_CONFIG
    tail_chunk = 100


class DenseAnalysis(Workload):
    """Uncached dense expm/eigh analyses and Marek-gate shots; no protocol code
    runs, so this is the bypass workload for RUS-engine changes.  Operations
    come in blocks of ``DENSE_KINDS`` in a seed-shuffled order; the set-up
    operations are the first block."""

    name = "dense_analysis"
    warmup = len(DENSE_KINDS)
    tail_chunk = 20 * len(DENSE_KINDS)  # 20 error-ensemble operations, which set the tail

    def op(self, index: int) -> Op:
        block, slot = divmod(index, len(DENSE_KINDS))
        order = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(1, block))
        ).permutation(len(DENSE_KINDS))
        kind = DENSE_KINDS[order[slot]]
        seed, out = op_seed(self.seed, index), self.out
        if kind == "marek":
            return Op(index, kind, seed)
        flags = {
            "sweep-variance": ("--cutoff", "120"),
            "error-ensemble": ("--N", str(DENSE_ERROR_N)),
            "check-identities": ("--cutoff", "80"),
        }[kind]
        argv = (kind, "--gamma", repr(DENSE_GAMMA), *flags, "--seed", str(seed), "--out", out)
        return Op(index, kind, seed, argv, out)


WORKLOADS = {w.name: w for w in (RusHerald, RusExhaust, DenseAnalysis)}


def execute(op: Op):
    """Run one operation; returns the CLI exit code or the Marek gate result."""
    if op.argv:
        return cli.main(list(op.argv))
    inp = coherent(MAREK_INPUT_ALPHA, MAREK_CUTOFFS[0])
    return schemes.marek_gate(
        inp, MAREK_R_WIDTH, DENSE_GAMMA, np.random.default_rng(op.seed), MAREK_CUTOFFS
    )
