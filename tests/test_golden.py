"""Relation T and relation C reports pinned byte for byte.

Each file tests/golden/<name>.json is the report ``verify`` writes for
the configuration CONFIGS[name], without its ``timestamp``.  The test
regenerates every report and compares bytes.  A change that alters
reports on purpose rewrites the corpus with

    PYTHONPATH=src python tests/test_golden.py

and names every file that changed, with the reason.

A relation C report does not depend on the draws (every off-diagonal
witness is the first wavefunction), so C_IMAGES.json pins, per relation
C configuration, a SHA-256 digest of the exact terms the kernel computes:
the drawn wavefunctions and their image under [P_a, Q_b] for every pair.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from discernlab.cli import EXIT_OK, main
from discernlab.schwartz import draw_wavefunctions

GOLDEN = Path(__file__).resolve().parent / "golden"


def _t(n, two_s, sector, pure, mixed, rank=2, seed=1):
    return ["--relation", "T", "--particles", str(n), "--two-s", str(two_s),
            "--sector", sector, "--pure-samples", str(pure),
            "--mixed-samples", str(mixed), "--mixed-rank", str(rank),
            "--seed", str(seed)]


def _c(n, two_s, wavefunctions, degree, seed=1):
    return ["--relation", "C", "--particles", str(n), "--two-s", str(two_s),
            "--pure-samples", str(wavefunctions), "--max-degree", str(degree),
            "--seed", str(seed)]


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
    "readme_T": ["--relation", "T", "--particles", "2", "--two-s", "1",
                 "--pure-samples", "1000", "--mixed-samples", "200",
                 "--seed", "17"],
    # the perfbench c-exact grid and n-scale C cell
    **{f"c-exact_N{n}_2s{two_s}": _c(n, two_s, 200, 8)
       for n in (2, 3) for two_s in (0, 1, 3)},
    "n-scale_N4_2s1_C": _c(4, 1, 10, 4),
    # the README's relation C example
    "readme_C": _c(3, 2, 200, 8, seed=17),
    # CI's relation C run whose packed term key spans several int64 words
    "N8_2s63_C": _c(8, 63, 20, 4, seed=3),
}


def report_text(args: list[str]) -> str:
    """The report of ``verify`` with args, minus its timestamp."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        argv = ["verify", *args, "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == EXIT_OK, f"exit {code}"
        data = json.loads(out.read_text())
    del data["timestamp"]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def images_digest(args: list[str]) -> str:
    """SHA-256 of a relation C config's draws and every pair's image."""
    opts = dict(zip(args[::2], map(str, args[1::2])))
    n = int(opts["--particles"])
    batch = draw_wavefunctions(n, int(opts["--max-degree"]),
                               int(opts["--two-s"]),
                               int(opts["--pure-samples"]),
                               int(opts["--seed"]))
    digest = hashlib.sha256()
    images = [batch] + [batch.commutator_PQ(a, b)
                        for a in range(1, n + 1) for b in range(1, n + 1)]
    for image in images:
        for psi in image.unpack():
            digest.update(repr(sorted(psi.terms.items())).encode())
            digest.update(b";")
    return digest.hexdigest()


def images_text() -> str:
    return json.dumps({name: images_digest(args)
                       for name, args in sorted(CONFIGS.items())
                       if args[1] == "C"}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    assert report_text(CONFIGS[name]) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(n for n, args in CONFIGS.items()
                                        if args[1] == "C"))
def test_C_images_match_golden(name):
    pinned = json.loads((GOLDEN / "C_IMAGES.json").read_text())
    assert images_digest(CONFIGS[name]) == pinned[name]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    texts = {f"{name}.json": lambda args=args: report_text(args)
             for name, args in CONFIGS.items()}
    texts["C_IMAGES.json"] = images_text
    for name, text in sorted(texts.items()):
        path = GOLDEN / name
        old = path.read_text() if path.exists() else None
        new = text()
        if new != old:
            path.write_text(new)
            print(f"{'wrote' if old is None else 'changed'} {path.name}",
                  file=sys.stderr)
