"""Closed-loop benchmark of the cubicphase simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the package in-process: each operation starts when the
previous one returns.  Workloads (see ``workloads.py``): ``rus_herald``,
``rus_exhaust`` and ``dense_analysis``.  The workload seed fixes every
operation's seed and argv.  BLAS and OpenMP run one thread each: on 2 vCPUs
``sweep-variance --cutoff 120`` took 66-258 ms per call with OpenBLAS's
default two threads and 44-63 ms with one.

``--trace 0`` measures the end-to-end metrics with no tracing.  Operation
times are the thread's CPU time (``time.thread_time``).  The operations are
single-threaded and CPU-bound, so on a dedicated machine this is their wall
time; on a shared VM it leaves out the time the hypervisor steals, which
moved wall-clock throughput by up to 40% between runs minutes apart.  Wall
clock figures are printed beside them.

* ``setup_s``: median over fresh processes of the CPU time to import the
  package and run the workload's untimed set-up operations
  (``setup_probe.py``);
* ``ops_per_s``, ``op_ms_p50`` and ``op_ms_tail`` over the timed operations;
  the tail is, per chunk of consecutive operations, the highest percentile
  with ten samples beyond it, and its median over chunks;
* ``peak_rss_mb``: peak resident memory of this process.

``attempts_per_s`` (RUS workloads) and ``failed_share`` are printed too; the
result line carries the latter as ``failed``/``attempted``.

``--trace 1`` runs every operation twice, once plain and once with spans
around the entry points in ``tracing.py``, and reports per entry point calls,
self time and time per call (span time, children included), the counters and
cache hit ratios, and the tracing overhead: traced over plain time of the
same operations, minus one.  Spans are written to
``.perfbench_run/spans-<workload>-<seed>.csv``.

Every operation's output is checked (``checks.py``).  Attempted operations
are the set-up, timed and replayed operations plus the aggregate checks;
an operation fails if it raises, exits non-zero or fails its check.  The last
line of standard output is the JSON result.  Exit code 2 means the package or
its test oracles are missing from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# Reproducers of known defects, run once per invocation outside the timed
# operations and never counted as failures.  Both exit 2 at this commit:
# * the README's recipe for quick successful runs (alpha1=3.3, T=0.9734,
#   purity_tol=1e-2): purity deficit 1.44e-2 after the first click;
# * a click late in a factor at the CLI defaults: the deficit grows with the
#   attempt index and passes the default purity_tol=1e-4 near attempt 376;
#   rus_exhaust loosens purity_tol to 1e-3 so its timed runs do not hit it.
README_PURITY_TOL = 1e-2
KNOWN_DEFECTS = (
    ("readme_quick_success", ("simulate", "--config", "{cfg}", "--alpha1", "3.3",
                              "--transmittance", "0.9734", "--seed", "0")),
    ("cli_defaults_late_click", ("simulate", "--ensemble", "1", "--max-attempts", "400",
                                 "--seed", "2471195700")),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rus_herald", "rus_exhaust", "dense_analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- machine fingerprint -------------------------------------------------------


def fingerprint() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else commit
        except (OSError, subprocess.TimeoutExpired):
            commit = "n/a (git not available)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cubicphase").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# -- running operations ----------------------------------------------------------


def attempt(fn, *args):
    """(result, None), or (None, error text) if ``fn`` raised; one failed
    operation must not end the run."""
    try:
        return fn(*args), None
    except (Exception, SystemExit) as exc:
        traceback.print_exc(file=sys.stderr)
        return None, f"raised {type(exc).__name__}: {exc}"


class Run:
    """Operations run and checked so far, with their outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.times: list[float] = []  # timed operations only, CPU seconds
        self.wall_times: list[float] = []
        self.attempts = 0  # total_attempts over timed operations
        self.herald_totals: list[int] = []
        self.fidelities: list[float] = []
        self.replay_ref: tuple | None = None  # (op, CSV bytes)

    def do(self, op, timed: bool, tracer=None):
        from checks import check_op
        from workloads import execute

        self.attempted += 1
        with tracer.op(op.index) if tracer is not None else contextlib.nullcontext():
            wall, cpu = time.perf_counter(), time.thread_time()
            result, raised = attempt(execute, op)
            cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
        error, fields = raised, {}
        if raised is None:
            error, fields = check_op(op, result, self.workload.name)
        if error is not None:
            self.failures.append(f"op {op.index} ({op.kind} seed {op.seed}): {error}")
        if not timed:
            return
        self.times.append(cpu)
        self.wall_times.append(wall)
        self.attempts += fields.get("total_attempts", 0)
        if fields.get("success") == 1:
            self.herald_totals.append(fields["total_attempts"])
            self.fidelities.append(fields["fidelity_un"])
        if self.replay_ref is None and op.out and error is None:
            with open(op.out, "rb") as fh:
                self.replay_ref = (op, fh.read())

    def check(self, name: str, error: str | None) -> str:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")
            return f"FAIL {name}: {error}"
        return f"PASS {name}"


def timed_loop(run: Run, seconds: float) -> None:
    """Run the operations after the set-up ones, one at a time, for ``seconds``."""
    index = run.workload.warmup
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run.do(run.workload.op(index), timed=True)
        index += 1


def replay_check(run: Run) -> str:
    from workloads import execute

    if run.replay_ref is None:
        return run.check("replay", "no timed CLI operation succeeded")
    op, ref = run.replay_ref
    code, error = attempt(execute, op)
    if error is None:
        with open(op.out, "rb") as fh:
            if code != 0 or fh.read() != ref:
                error = f"op {op.index} (seed {op.seed}) replayed to exit {code} or other CSV bytes"
    return run.check(f"replay of op {op.index} byte-identical", error)


def setup_seconds(workload: str, seed: int, workdir: Path) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for probe in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{probe}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(probe_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, env=env, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def known_defects(workdir: Path) -> list[str]:
    """Run each known-defect reproducer once; report exit codes and messages."""
    from cubicphase import cli

    cfg = workdir / "readme_recipe.cfg"
    cfg.write_text(f"purity_tol={README_PURITY_TOL!r}\n", encoding="utf-8")
    out = str(workdir / "defect.csv")
    reports = []
    for name, argv in KNOWN_DEFECTS:
        shown = " ".join(argv).replace("{cfg}", f"<purity_tol={README_PURITY_TOL!r}>")
        argv = [a.replace("{cfg}", str(cfg)) for a in argv] + ["--out", out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, raised = attempt(cli.main, argv)
        message = err.getvalue().strip().replace("\n", " | ") or "(no message)"
        reports.append(f"{name} ({shown}): exit {raised or code}: {message}")
    return reports


# -- metrics -------------------------------------------------------------------


def tail(times: list[float], chunk: int) -> tuple[float, float, int]:
    """(value, percentile, chunks): per chunk of ``chunk`` consecutive operations
    the highest percentile with ten samples beyond it, median over chunks.

    Over a whole run that percentile sits at the top 0.7% of operations, where
    bursts of contention on a shared host, not the program, set the value.
    """
    chunks = [times[i:i + chunk] for i in range(0, len(times) - chunk + 1, chunk)] or [times]
    size = len(chunks[0])
    beyond = min(10, size - 1)
    values = [sorted(c)[size - 1 - beyond] for c in chunks]
    return statistics.median(values), 100.0 * (size - beyond) / size, len(chunks)


def end_to_end(run: Run, setup: list[float], peak_rss_mb: float) -> tuple[dict, list[str]]:
    busy, wall = sum(run.times), sum(run.wall_times)
    tail_s, pct, chunks = tail(run.times, run.workload.tail_chunk)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(run.times) / busy, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(run.times), "ms"),
        "op_ms_tail": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}",
        f"op_ms_tail is p{pct:.1f} (10 samples beyond) of each of {chunks} chunks of "
        f"{run.workload.tail_chunk} timed operations, median over chunks; "
        f"{len(run.times)} timed operations in all",
        f"wall clock: {len(run.times) / wall!r} ops/s, median "
        f"{1e3 * statistics.median(run.wall_times):.4f} ms, {100 * (1 - busy / wall):.1f}% "
        f"of it off this thread's CPU",
    ]
    if run.workload.name != "dense_analysis":
        notes.append(f"attempts_per_s: {run.attempts / busy!r} 1/s "
                     f"({run.attempts} attempts in {busy:.3f} s)")
    return metrics, notes


def trace_loop(plain: Run, traced: Run, seconds: float):
    """Run each operation twice, untraced and traced, for ``seconds``.

    The order alternates by operation, so cache warming by the first run of
    an operation and drift in machine speed fall equally on both sides.
    Cache hit ratios count the first run of each operation only, as an
    untraced run would see them.
    """
    from tracing import CACHES, Tracer, cache_counts

    tracer = Tracer()
    lookups = {key: [0, 0] for key in CACHES}
    index = plain.workload.warmup
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = plain.workload.op(index)
        first, second = ((traced, tracer), (plain, None)) if index % 2 else ((plain, None), (traced, tracer))
        before = cache_counts()
        first[0].do(op, timed=True, tracer=first[1])
        for key, (hits, misses) in cache_counts().items():
            if key in before:
                lookups[key][0] += hits - before[key][0]
                lookups[key][1] += misses - before[key][1]
        second[0].do(op, timed=True, tracer=second[1])
        index += 1
    absent = set(CACHES) - set(cache_counts())
    tracer.absent += [f"protocol.cache.{key}" for key in sorted(absent)]
    return tracer, {key: v for key, v in lookups.items() if key not in absent}


def per_layer(tracer, cache_lookups: dict, traced: Run, plain: Run) -> tuple[dict, list]:
    from tracing import CACHES, SPAN_NAMES

    traced_s, plain_s = sum(traced.times), sum(plain.times)
    metrics = {}
    rows = []
    for name in SPAN_NAMES:
        st = tracer.stats[name]
        us = 1e-3 * st.total_ns / st.calls if st.calls else 0.0
        metrics[f"{name}.calls"] = (st.calls, "count")
        metrics[f"{name}.self_s"] = (1e-9 * st.self_ns, "s")
        metrics[f"{name}.us_per_call"] = (us, "us")
        if st.calls:
            rows.append(f"  {name:40s} {st.calls:8d} calls  self {1e-9 * st.self_ns:9.4f} s "
                        f"({100 * 1e-9 * st.self_ns / traced_s:5.1f}% of op time)  "
                        f"{us:10.1f} us/call")
    c = tracer.counters
    metrics["protocol.attempts_per_factor"] = (c["attempts"] / c["factors"] if c["factors"] else 0.0,
                                               "attempts/factor")
    metrics["protocol.herald_ratio"] = (c["heralded"] / c["attempts"] if c["attempts"] else 0.0, "1")
    metrics["protocol.rus_factor.failures"] = (c["factor_failures"], "count")
    metrics["cli._write_csv.bytes"] = (c["csv_bytes"], "bytes")
    metrics["analysis.error_operator_stats.events"] = (c["error_events"], "count")
    rows.append(f"  counters: {c['factors']} factors, {c['attempts']} attempts, "
                f"{c['heralded']} heralded, {c['factor_failures']} exhausted")
    for key in CACHES:
        hits, misses = cache_lookups.get(key, (0, 0))
        ratio = hits / (hits + misses) if hits + misses else 0.0
        metrics[f"protocol.cache.{key}.hit_ratio"] = (ratio, "1")
        rows.append(f"  cache {key}: {hits} hits / {hits + misses} lookups")
    metrics["protocol.attempts_per_s"] = (plain.attempts / plain_s, "1/s")
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0, "1")
    rows.append(f"  trace.overhead: traced {traced_s:.4f} s vs untraced {plain_s:.4f} s "
                f"for the same {len(plain.times)} operations")
    return metrics, rows


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cubicphase" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no src/cubicphase package or tests/oracles.py; "
              "run from a full checkout", file=sys.stderr)
        return 2
    # before numpy loads: one BLAS/OpenMP thread, here and in the set-up probes
    for var in THREAD_PINS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    warnings.filterwarnings("ignore", message="weak-subtraction", category=UserWarning)

    from checks import HERALD_FIDELITY_FLOOR, check_herald_oracle
    from workloads import WORKLOADS

    out_dir = ROOT / ".perfbench_run"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed, workdir)
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        workload.prepare()
        run = Run(workload)
        for index in range(workload.warmup):
            run.do(workload.op(index), timed=False)

        lines = []
        if args.trace:
            traced = Run(workload)
            tracer, cache_lookups = trace_loop(run, traced, args.seconds)
            metrics, rows = per_layer(tracer, cache_lookups, traced, run)
            tracer.write_spans(str(out_dir / f"spans-{args.workload}-{args.seed}.csv"))
            lines += ["per entry point (traced executions):", *rows]
            if tracer.absent:
                lines.append(f"absent entry points: {', '.join(tracer.absent)}")
            if tracer.observer_errors:
                lines.append(f"counters not read (inputs changed): {sorted(tracer.observer_errors)}")
            # the traced executions repeat the untraced ones, so only their
            # failures join the ledger; the oracle sees each operation once
            run.attempted += traced.attempted
            run.failures += traced.failures
        else:
            timed_loop(run, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, notes = end_to_end(run, setup, peak_rss_mb)
            lines += notes

        lines.append(replay_check(run))
        if args.workload == "rus_herald":
            error, detail = check_herald_oracle(run.herald_totals)
            lines += [run.check("attempt-count oracle", error), f"  {detail}"]
            if run.fidelities:
                lines.append(f"fidelity_un: min {min(run.fidelities):.4f} over "
                             f"{len(run.fidelities)} heralded runs (floor {HERALD_FIDELITY_FLOOR})")
        lines += [f"known_defects: {report}" for report in known_defects(workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("fingerprint: " + json.dumps(fingerprint()))
    for line in lines:
        print(line)
    print(f"failed_share: {len(run.failures) / run.attempted!r} "
          f"({len(run.failures)} of {run.attempted} attempted)")
    for failure in run.failures[:20]:
        print(f"failure: {failure}")
    for name, (value, unit) in metrics.items():
        if not args.trace:
            print(f"{name}: {value!r} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
