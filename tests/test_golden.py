"""Relation T reports pinned byte for byte.

Each file tests/golden/<name>.json is the report ``verify`` writes for
the configuration CONFIGS[name], without its ``timestamp``.  The test
regenerates every report and compares bytes.  A change that alters
reports on purpose rewrites the corpus with

    PYTHONPATH=src python tests/test_golden.py

and names every file that changed, with the reason.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from discernlab.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _t(n, two_s, sector, pure, mixed, rank=2, seed=1):
    return ["--particles", str(n), "--two-s", str(two_s), "--sector", sector,
            "--pure-samples", str(pure), "--mixed-samples", str(mixed),
            "--mixed-rank", str(rank), "--seed", str(seed)]


CONFIGS = {
    # the perfbench t-sample grid, without its empty fermi cell (N=3, 2s=1)
    **{f"t-sample_N{n}_2s{two_s}_{sector}": _t(n, two_s, sector, 1000, 200, 1)
       for n in (2, 3) for two_s in (1, 2)
       for sector in ("full", "bose", "fermi")
       if not (sector == "fermi" and two_s + 1 < n)},
    # the perfbench n-scale T cells
    "n-scale_N6_2s1_full": _t(6, 1, "full", 20, 4),
    "n-scale_N6_2s1_bose": _t(6, 1, "bose", 20, 4),
    "n-scale_N4_2s3_fermi": _t(4, 3, "fermi", 20, 4),
    "N12_2s1_bose": _t(12, 1, "bose", 20, 4),
    # the README's relation T example
    "readme_T": ["--particles", "2", "--two-s", "1", "--pure-samples", "1000",
                 "--mixed-samples", "200", "--seed", "17"],
}


def report_text(args: list[str]) -> str:
    """The report of ``verify --relation T`` with args, minus its timestamp."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        argv = ["verify", "--relation", "T", *args, "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == EXIT_OK, f"exit {code}"
        data = json.loads(out.read_text())
    del data["timestamp"]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    assert report_text(CONFIGS[name]) == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in sorted(CONFIGS.items()):
        path = GOLDEN / f"{name}.json"
        old = path.read_text() if path.exists() else None
        new = report_text(args)
        if new != old:
            path.write_text(new)
            print(f"{'wrote' if old is None else 'changed'} {path.name}",
                  file=sys.stderr)
