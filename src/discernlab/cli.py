"""Command-line front end: configure, run and render certifications.

``verify`` writes the report as JSON, the one on-disk format; ``render``
prints a report file as markdown.

Exit codes:
    0  verdict weakly_discerning
    1  verdict violated or inconclusive
    2  usage / configuration error, including inputs the certifiers
       reject (an empty sector, fewer than two particles, spin 0 for
       relation T, a mixed rank below 1, a negative seed; a mixed rank
       above the sector dimension is lowered to it, and
       samples.mixed_rank records the rank used)
    3  resource limit exceeded: the dimension cap, relation T samples
       holding more than cap^2 amplitudes, a relation T pair block with
       more than cap^2 entries (d^4), or a relation C --max-degree above
       30 (the degree cap 32 less the 2 [P_a, Q_b] adds)
    4  input error (missing or corrupt report file, or not a report,
       including a spectrum that is not [eigenvalue, multiplicity] pairs)
    5  internal error: any other exception; its traceback goes to stderr

One guard in ``main`` maps every exception to one of these codes, so a
crash never reads as the verdict "violated".  The whole configuration
is checked before any work: value types, ranges, a finite positive
--tol, an existing output directory, a positive DISCERNLAB_DIM_CAP, at
least one sample, and no setting the chosen relation would ignore
(--max-degree for T; --sector, --tol, --mixed-samples and --mixed-rank
for C, whose exact route has no tolerance, no mixed states and no
symmetry sectors).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, fields
from typing import Iterable

from .discern import VERDICT_PASS, DiscernibilityReport, certify_C, certify_T
from .errors import (
    ArityError,
    ConfigError,
    DegenerateSpinError,
    DegreeCapError,
    DimensionCapError,
    DomainError,
    EmptySectorError,
    RankError,
)
from .multiparticle import dimension_cap

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INPUT = 4
EXIT_INTERNAL = 5

# errors caused by what the user asked for: exit 2, like a bad flag
_INPUT_ERRORS = (ConfigError, EmptySectorError, ArityError,
                 DegenerateSpinError, DomainError, RankError)
# RunConfig annotation -> accepted types (bool is rejected separately)
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}
# per relation, the RunConfig fields it does not use -> their flags
_UNUSED = {"T": {"max_degree": "--max-degree"},
           "C": {"sector": "--sector", "tol": "--tol",
                 "n_mixed_samples": "--mixed-samples",
                 "mixed_rank": "--mixed-rank"}}
# keys every report file holds: what render reads (spectrum is optional;
# when present it is a list of [eigenvalue, int multiplicity] pairs)
_REPORT_KEYS = {f.name for f in fields(DiscernibilityReport)} - {"spectrum"}
_PAIR_KEYS = {"a", "b", "reflexive", "off_diagonal_fails", "witness"}


@dataclass
class RunConfig:
    relation: str = "T"
    n_particles: int = 2
    two_s: int = 1
    sector: str = "full"
    n_pure_samples: int = 100
    n_mixed_samples: int = 20
    mixed_rank: int = 2
    max_degree: int = 6
    seed: int = 0
    tol: float = 1e-8
    out: str = "report.json"

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) \
                    or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.relation not in ("C", "T"):
            raise ConfigError(f"unknown relation {self.relation!r}")
        if self.n_particles < 2:
            raise ConfigError("need --particles >= 2")
        if self.two_s < 0:
            raise ConfigError("need --two-s >= 0")
        if self.relation == "T" and self.two_s < 1:
            raise ConfigError("relation T needs --two-s >= 1")
        for name in ("n_pure_samples", "n_mixed_samples", "mixed_rank",
                     "max_degree", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.relation == "T" and self.n_mixed_samples > 0 \
                and self.mixed_rank < 1:
            raise ConfigError("mixed samples need --mixed-rank >= 1")
        if self.sector not in ("full", "bose", "fermi"):
            raise ConfigError(f"unknown sector {self.sector!r}")
        for f in fields(self):
            flag = _UNUSED[self.relation].get(f.name)
            if flag and getattr(self, f.name) != f.default:
                raise ConfigError(
                    f"relation {self.relation} does not use {flag}; "
                    f"leave it at its default {f.default!r}")
        if self.relation == "T" \
                and self.n_pure_samples + self.n_mixed_samples == 0:
            raise ConfigError("relation T needs at least one pure or "
                              "mixed sample")
        if self.relation == "C" and self.n_pure_samples < 1:
            raise ConfigError("relation C needs --pure-samples >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(
                f"--tol must be finite and positive, got {self.tol}")
        out_dir = os.path.dirname(os.path.abspath(self.out))
        if not os.path.isdir(out_dir):
            raise ConfigError(f"output directory {out_dir!r} does not exist")
        dimension_cap()  # raises on a malformed DISCERNLAB_DIM_CAP


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process at its first use: parsing keeps
    no state in it, and ``main`` may run many times in one process."""
    parser = argparse.ArgumentParser(
        prog="discernlab",
        description="Certify weak-discernibility relations between "
                    "identical quantum particles.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a certification")
    verify.add_argument("--config", help="JSON config file; flags override it")
    verify.add_argument("--relation", choices=["C", "T"])
    verify.add_argument("--particles", type=int, dest="n_particles")
    verify.add_argument("--two-s", type=int, dest="two_s")
    verify.add_argument("--sector", choices=["full", "bose", "fermi"])
    verify.add_argument("--pure-samples", type=int, dest="n_pure_samples")
    verify.add_argument("--mixed-samples", type=int, dest="n_mixed_samples")
    verify.add_argument("--mixed-rank", type=int, dest="mixed_rank")
    verify.add_argument("--max-degree", type=int, dest="max_degree")
    verify.add_argument("--seed", type=int)
    verify.add_argument("--tol", type=float)
    verify.add_argument("--out")

    render = sub.add_parser("render", help="print a report file as markdown")
    render.add_argument("path")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    names = [f.name for f in fields(cfg)]
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in data.items():
            if key not in names:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
    # flag destinations are the RunConfig field names
    for name in names:
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg.validate()
    return cfg


def atomic_write(path: str, blocks: Iterable[str]):
    """Write the blocks of text to path through a temp file renamed into
    place: a failure, also while the blocks are made, leaves no file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_to_markdown(data: dict) -> str:
    lines = [
        f"# Discernibility report: relation {data['relation']}",
        "",
        f"- verdict: **{data['verdict']}**",
        f"- mode: {data['mode']}",
        f"- particles: {data['n_particles']}, 2s = {data['two_s']}, "
        f"sector = {data['sector']}",
        f"- samples: {data['samples']}",
        f"- seed: {data['seed']}, tolerances: {data['tolerances']}",
        f"- permutation invariant: {data['permutation_invariant']}",
        "",
        "| a | b | reflexive | off-diagonal fails | witness |",
        "|---|---|-----------|--------------------|---------|",
    ]
    for p in data["pairs"]:
        lines.append(
            f"| {p['a']} | {p['b']} | {p['reflexive']} "
            f"| {p['off_diagonal_fails']} | {p['witness']} |")
    if data.get("spectrum"):
        lines.append("")
        lines.append("Spectrum of the off-diagonal operator "
                     "(eigenvalue in units of hbar^2, multiplicity):")
        for lam, mult in data["spectrum"]:
            lines.append(f"- {lam:.10g} (x{mult})")
    if "timestamp" in data:
        lines.append("")
        lines.append(f"Generated: {data['timestamp']}")
    return "\n".join(lines) + "\n"


def run_verify(cfg: RunConfig) -> int:
    if cfg.relation == "T":
        report = certify_T(cfg.n_particles, cfg.two_s, cfg.sector,
                           cfg.n_pure_samples, cfg.n_mixed_samples,
                           cfg.mixed_rank, cfg.seed, cfg.tol)
    else:
        report = certify_C(cfg.n_particles, cfg.two_s, cfg.n_pure_samples,
                           cfg.max_degree, cfg.seed)
    # the report's fields hold no dataclass, so a shallow dict gives the
    # JSON of dataclasses.asdict without its deep copy
    data = {f.name: getattr(report, f.name) for f in fields(report)}
    data["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    # json.dumps' text, encoded and written 65,536 chunks at a time, so
    # that a large report is never held twice
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(data)
    blocks = map("".join, iter(
        lambda: list(itertools.islice(chunks, 65536)), []))
    atomic_write(cfg.out, itertools.chain(blocks, ["\n"]))
    if report.verdict == VERDICT_PASS:
        print(f"verdict: {report.verdict} (report: {cfg.out})")
        return EXIT_OK
    print(f"verdict: {report.verdict} (report: {cfg.out})", file=sys.stderr)
    return EXIT_VIOLATED


def run_render(path: str) -> int:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        print(f"error: cannot read report {path!r}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not (isinstance(data, dict) and _REPORT_KEYS <= data.keys()
            and isinstance(data["pairs"], list)
            and all(isinstance(p, dict) and _PAIR_KEYS <= p.keys()
                    for p in data["pairs"])
            and isinstance(data.get("spectrum", []), list)
            and all(isinstance(p, list) and len(p) == 2
                    and type(p[0]) in (int, float) and type(p[1]) is int
                    for p in data.get("spectrum", []))):
        print(f"error: {path!r} is not a discernlab report", file=sys.stderr)
        return EXIT_INPUT
    print(report_to_markdown(data), end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "render":
            return run_render(args.path)
        return run_verify(load_config(args))
    except _INPUT_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DimensionCapError, DegreeCapError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
