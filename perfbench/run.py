#!/usr/bin/env python3
"""discernlab benchmark: certification grids driven through `discernlab verify`.

    python3 perfbench/run.py --workload {t-sample,c-exact,n-scale} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
./src.  A workload is a grid of certification cells.  One pass calls
``discernlab.cli.main(["verify", ...])`` in this process for every cell,
one after the other: a closed loop with one client.  Passes repeat, each
on inputs drawn from --seed, until the next one would overrun --seconds.
The seed reaches the program only as the cells' --seed.  Every report is
checked (see ``check_report``); a traced run certifies each draw twice,
and the two reports must agree once their timestamps are dropped.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run (tracer.py).  A
cell that raises counts as failed; a cell whose exit code or report is
wrong makes the result incorrect and the exit code 1.  The environment
and the full result are written to .perfbench_out/ in the checkout.
``--workload all`` runs each workload in a fresh process and prints one
table of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5  # taken twice: before and after the passes
# A median needs a middle value: n-scale passes take 9-12 s, so a slow
# phase of the machine would otherwise leave it two.
MIN_PASSES = 3
SPECTRUM_TOL = 1e-8
EXIT_CAP_CODES = (2, 3)  # documented exits for an empty sector


@dataclass(frozen=True)
class Cell:
    relation: str
    n: int
    two_s: int
    sector: str = "full"
    pure: int = 0  # pure states for T, wavefunctions for C
    mixed: int = 0
    rank: int = 1
    degree: int = 0

    @property
    def label(self) -> str:
        return f"{self.relation}:N={self.n}:2s={self.two_s}:{self.sector}"

    @property
    def empty(self) -> bool:
        """The fermi sector of N particles with d = 2s+1 < N states is {0}."""
        return self.sector == "fermi" and self.two_s + 1 < self.n

    def argv(self, seed: int, out: str) -> list[str]:
        args = ["verify", "--relation", self.relation,
                "--particles", str(self.n), "--two-s", str(self.two_s),
                "--pure-samples", str(self.pure), "--seed", str(seed),
                "--out", out]
        if self.relation == "T":
            args += ["--sector", self.sector,
                     "--mixed-samples", str(self.mixed),
                     "--mixed-rank", str(self.rank)]
        else:
            args += ["--max-degree", str(self.degree)]
        return args


def _t(n, two_s, sector, pure, mixed, rank):
    return Cell("T", n, two_s, sector, pure, mixed, rank)


def _c(n, two_s, wavefunctions, degree):
    return Cell("C", n, two_s, pure=wavefunctions, degree=degree)


# Why each workload exists, and what it should show: perfbench/NOTES.md.
WORKLOADS = {
    "t-sample": [_t(n, two_s, sector, 1000, 200, 1)
                 for n in (2, 3) for two_s in (1, 2)
                 for sector in ("full", "bose", "fermi")],
    "c-exact": [_c(n, two_s, 200, 8) for n in (2, 3) for two_s in (0, 1, 3)],
    # C at N=5, 2s=0 is left out: its cost follows the term counts of
    # three random one-component wavefunctions and varies 2x between seeds.
    "n-scale": [_t(6, 1, "full", 20, 4, 2), _t(6, 1, "bose", 20, 4, 2),
                _t(4, 3, "fermi", 20, 4, 2), _c(4, 1, 10, 4)],
}

# Tiny cells run once before timing, so first-call costs (LAPACK, BLAS
# threads, lazy imports) are not charged to the first pass.
WARMUP = [_t(2, 1, "bose", 4, 2, 2), _c(2, 1, 2, 2)]

# Per-layer metric name -> implementing functions ("module:qualname").
# A layer sums its targets and skips missing ones, so a replacement listed
# beside a function that a refactor removes keeps the layer measured.
LAYERS = {
    "discern.permutation_invariance_check":
        ["discern:permutation_invariance_check"],
    "multiparticle.permutation_unitary": ["multiparticle:permutation_unitary"],
    "multiparticle.sector_projector": ["multiparticle:sector_projector"],
    "spin.pair_total_spin_squared": ["spin:pair_total_spin_squared"],
    "multiparticle.embed_at_slot": ["multiparticle:embed_at_slot"],
    "matrix_core.kron": ["matrix_core:kron"],
    "discern.eigenproperty": ["discern:eigenproperty"],
    "discern.sample": ["discern:_sample_pure", "discern:_sample_mixed",
                       "multiparticle:random_pure_state",
                       "multiparticle:random_mixed_state"],
    "matrix_core.MixedState": ["matrix_core:MixedState.__post_init__"],
    "matrix_core.is_scalar_identity": ["matrix_core:is_scalar_identity"],
    "matrix_core.eigenvalue_levels": ["matrix_core:eigenvalue_levels"],
    "schwartz.commutator_PQ_apply": ["schwartz:commutator_PQ_apply"],
    "schwartz.random_wavefunction": ["schwartz:random_wavefunction"],
    "discern.ccr_identity_on_monomials":
        ["discern:ccr_identity_on_monomials"],
    "schwartz.permute_slots": ["schwartz:SpinorWavefunction.permute_slots"],
    "discern.certify_T": ["discern:certify_T"],
    "discern.certify_C": ["discern:certify_C"],
    "cli.load_config": ["cli:load_config"],
    "cli.atomic_write": ["cli:atomic_write"],
}

# Layers whose distinct arguments per cell are the permutations checked.
PERMUTATION_KEYS = {
    "T": ("discern.permutation_invariance_check", lambda args: args[1].mapping),
    "C": ("schwartz.permute_slots", lambda args: tuple(args[1])),
}


def cell_seed(seed: int, draw: int) -> int:
    """The --seed given to every cell in pass `draw` of a run.

    Each pass certifies fresh inputs.  The cost of a C cell depends on the
    size of the first few random wavefunctions, which one seed fixes; a
    median over several draws per run keeps that from moving grid_s
    between runs.
    """
    return random.Random(f"{seed}:{draw}").randrange(2 ** 31)


# -- checking one cell ------------------------------------------------------

def expected_spectrum(cell: Cell) -> list[tuple[int, int]]:
    """(S(S+1), (2S+1) d^(N-2)) for S = 0..2s: the spectrum of (S_a+S_b)^2."""
    d = cell.two_s + 1
    return [(s * (s + 1), (2 * s + 1) * d ** (cell.n - 2))
            for s in range(cell.two_s + 1)]


def check_report(cell: Cell, seed: int, data: dict) -> list[str]:
    """Everything wrong with one cell's report (empty when it is right)."""
    problems = []
    want = {"relation": cell.relation, "n_particles": cell.n,
            "two_s": cell.two_s, "sector": cell.sector, "seed": seed,
            "verdict": "weakly_discerning", "permutation_invariant": True}
    for key, value in want.items():
        if data.get(key) != value:
            problems.append(f"{key}={data.get(key)!r}, want {value!r}")
    pairs = {(p.get("a"), p.get("b")): p for p in data.get("pairs", [])}
    every = {(a, b) for a in range(1, cell.n + 1) for b in range(1, cell.n + 1)}
    if len(data.get("pairs", [])) != cell.n ** 2 or set(pairs) != every:
        problems.append(f"pairs are not the {cell.n}^2 ordered pairs")
    for (a, b), p in pairs.items():
        flag = "reflexive" if a == b else "off_diagonal_fails"
        if p.get(flag) is not True:
            problems.append(f"pair ({a},{b}) {flag}={p.get(flag)!r}")
    if cell.relation == "T":
        got = data.get("spectrum") or []
        want_levels = expected_spectrum(cell)
        ok = len(got) == len(want_levels) and all(
            abs(lam - w_lam) <= SPECTRUM_TOL and mult == w_mult
            for (lam, mult), (w_lam, w_mult) in zip(got, want_levels))
        if not ok:
            problems.append(f"spectrum {got} != {want_levels}")
    return problems


class Grid:
    """One workload's cells, with the reports of earlier passes."""

    def __init__(self, name: str, cells: list[Cell], seed: int, out_dir: str):
        from discernlab import cli  # imported only once the src check passed
        self.main = cli.main
        self.name = name
        self.cells = cells
        self.seed = seed
        self.out_dir = out_dir
        self.draw = None
        self.canonical: dict[int, str] = {}  # cell -> report of this draw
        self.perms: dict[int, int] = {}  # cell -> permutations checked
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.crashes: set[str] = set()
        self.cell_s: list[float] = []  # per-cell medians of the timed passes

    def run_pass(self, draw: int, tracer=None) -> list[float]:
        """Certify every cell once on the draw's inputs; the time of each."""
        seed = cell_seed(self.seed, draw)
        if draw != self.draw:
            self.draw, self.canonical = draw, {}
        return [self.run_cell(i, cell, seed, tracer)
                for i, cell in enumerate(self.cells)]

    def run_cell(self, index: int, cell: Cell, seed: int, tracer=None) -> float:
        """Certify one cell; return its wall time and record its outcome."""
        out = os.path.join(self.out_dir, f"cell{index}.json")
        argv = cell.argv(seed, out)
        sink = io.StringIO()
        raised = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.main(argv)
                else:
                    tracer.cell = index
                    with tracer.span("cell"):
                        code = self.main(argv)
            except Exception as exc:  # a crash is a failed cell, not a verdict
                raised = exc
            elapsed = time.perf_counter() - start
        if tracer is not None:
            for relation, (layer, _) in PERMUTATION_KEYS.items():
                seen = tracer.take_distinct(layer)
                if relation == cell.relation:
                    self.perms[index] = seen
        self.attempted += 1
        if raised is not None:
            self.failed += 1
            crash = f"{cell.label}: raised {type(raised).__name__}: {raised}"
            if crash not in self.crashes:
                self.crashes.add(crash)
                print(f"failed cell {crash}", file=sys.stderr)
            return elapsed
        problems = self._check(index, cell, seed, code, out)
        if problems:
            self.failed += 1
            self.problems += [f"{cell.label}: {p}" for p in problems]
        return elapsed

    def _check(self, index: int, cell: Cell, seed: int, code: int,
               out: str) -> list[str]:
        if cell.empty:
            ok = code in EXIT_CAP_CODES
            return [] if ok else [f"exit {code}, want one of {EXIT_CAP_CODES}"]
        if code != 0:
            return [f"exit {code}, want 0"]
        try:
            with open(out) as fh:
                data = json.load(fh)
            os.unlink(out)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable report: {exc}"]
        problems = check_report(cell, seed, data)
        data.pop("timestamp", None)
        text = json.dumps(data, sort_keys=True)
        if self.canonical.setdefault(index, text) != text:
            problems.append(f"report for seed {seed} differs between passes")
        return problems

    def perms_per_cell(self, relation: str) -> float:
        """Mean permutations checked per cell of the relation (traced runs)."""
        counts = [self.perms.get(i, 0) for i, c in enumerate(self.cells)
                  if c.relation == relation]
        return sum(counts) / len(counts) if counts else 0


# -- measuring ----------------------------------------------------------------

def setup_samples(count: int) -> list[float]:
    """Seconds for each of count fresh interpreters to import discernlab.cli.

    Import time drifts over seconds with the machine's load, so the run
    takes samples at its start and at its end and reports their median.
    """
    cmd = [sys.executable, "-c", "import discernlab.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def timed_passes(grid: Grid, seconds: float, modes: list,
                 min_passes: int = 1) -> list[list]:
    """Cycle through modes (None or a tracer) until the budget is spent.

    Pass k of each mode certifies draw k, so modes see the same inputs and
    their reports must agree.  Returns, per mode, the per-cell times of
    each of its passes.  Every mode runs at least min_passes times; after
    that no pass starts that would end, at the length of the last one,
    after the deadline.
    """
    times = [[] for _ in modes]
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        mode = modes[k % len(modes)]
        draw = k // len(modes)
        if mode is None:
            cell_s = grid.run_pass(draw)
        else:
            with mode.traced_pass():
                cell_s = grid.run_pass(draw, mode)
        times[k % len(modes)].append(cell_s)
        k += 1
        if k >= min_passes * len(modes) \
                and time.perf_counter() + sum(cell_s) > deadline:
            return times


def cell_medians(passes: list[list[float]]) -> list[float]:
    """Each cell's median time over the passes; grid_s is their sum.

    A burst of load from outside slows a few cells, not whole passes, so
    per-cell medians stay put where a median of pass totals would not.
    """
    return [statistics.median(cell) for cell in zip(*passes)]


def run_traced(grid: Grid, seconds: float) -> dict:
    """Per-layer metrics: untraced and traced passes alternate."""
    from tracer import Tracer
    tracer = Tracer(LAYERS, distinct=dict(PERMUTATION_KEYS.values()))
    untraced, traced = timed_passes(grid, seconds, [None, tracer])
    if tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}", file=sys.stderr)
    write_spans(tracer, grid)
    metrics = {}
    for name in LAYERS:
        calls = [c.get(name, 0) for c, _ in tracer.passes]
        self_s = [s.get(name, 0.0) for _, s in tracer.passes]
        if len(set(calls)) > 1:
            grid.problems.append(f"{name} calls differ between passes: {calls}")
        metrics[f"{name}.calls"] = (calls[-1], "count")
        metrics[f"{name}.self_s"] = (statistics.median(self_s), "s")
    for relation in ("T", "C"):
        metrics[f"work.{relation}_perms_per_cell"] = (
            grid.perms_per_cell(relation), "count")
    metrics["work.dense_op_bytes_computed"] = (sum(
        c.n ** 2 * ((c.two_s + 1) ** c.n) ** 2 * 16
        for c in grid.cells if c.relation == "T"), "B")
    grid.cell_s = cell_medians(untraced)
    metrics["trace.overhead_s"] = (sum(cell_medians(traced))
                                   - sum(grid.cell_s), "s")
    metrics["trace.absent_layers"] = (len(tracer.absent), "count")
    return metrics


def write_spans(tracer, grid: Grid):
    """The spans of the last traced pass, for inspection after the run."""
    with open(OUT_DIR / f"spans-{grid.name}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "cell"],
                   "cells": [c.label for c in grid.cells],
                   "absent": tracer.absent, "spans": tracer.spans}, fh)


# -- environment --------------------------------------------------------------

def openblas_threads():
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(
                ROOT.parent))).stdout.strip()
    except OSError:
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": commit or "unknown (not a git checkout)",
    }


# -- entry points -------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True))
    cells = WORKLOADS[name]
    if not trace:
        setup_samples(1)  # writes the bytecode cache, which users reuse
        setup = setup_samples(SETUP_SAMPLES)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reports-", dir=OUT_DIR)
    try:
        warm = Grid("warmup", WARMUP, seed, scratch)
        warm.run_pass(-1)
        grid = Grid(name, cells, seed, scratch)
        if trace:
            metrics = run_traced(grid, seconds)
        else:
            passes, = timed_passes(grid, seconds, [None], MIN_PASSES)
            grid.cell_s = cell_medians(passes)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup += setup_samples(SETUP_SAMPLES)
            metrics = {"grid_s": (sum(grid.cell_s), "s"),
                       "peak_rss_mb": (rss, "MB"),
                       "setup_s": (statistics.median(setup), "s")}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems = warm.problems + grid.problems
    for line in dict.fromkeys(problems):
        print(f"incorrect {line}", file=sys.stderr)
    fail_frac = grid.failed / grid.attempted
    print(f"workload {name}: {grid.attempted} cells attempted, "
          f"{grid.failed} failed, fail_frac {fail_frac:.6g}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value} {unit}")
    result = {
        "correct": not problems,
        "attempted": grid.attempted,
        "failed": grid.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{name}-trace{int(trace)}.json", "w") as fh:
        json.dump({"workload": name, "environment": env,
                   "fail_frac": fail_frac, **result,
                   "cell_median_s": dict(zip([c.label for c in cells],
                                             grid.cell_s))}, fh, indent=2)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process; one table of end-to-end metrics."""
    rows, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            rows.append((name, "no result"))
            status = status or 1
            continue
        res = json.loads(lines[-1])
        m = res["metrics"]
        rows.append((name,
                     f"grid_s {m['grid_s']['value']:.4f} s  "
                     f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB  "
                     f"fail_frac {res['failed'] / res['attempted']:.4f}  "
                     f"setup_s {m['setup_s']['value']:.4f} s  "
                     f"correct {res['correct']}"))
    for name, text in rows:
        print(f"{name:9s} {text}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "discernlab" / "cli.py").is_file():
        print(f"error: no discernlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
