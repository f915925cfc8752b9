import json

import pytest

from discernlab import cli, discern
from discernlab.spin import SpinLabel
from discernlab.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
    report_to_markdown,
)


def run(args):
    return main(args)


# the spectrum of (S_a + S_b)^2 for two spin-63/2 particles, as JSON:
# [S(S+1), 2S+1] for S = 0..63
SPIN_63_SPECTRUM = (
    "[[0, 1], [2, 3], [6, 5], [12, 7], [20, 9], [30, 11], [42, 13], "
    "[56, 15], [72, 17], [90, 19], [110, 21], [132, 23], [156, 25], "
    "[182, 27], [210, 29], [240, 31], [272, 33], [306, 35], [342, 37], "
    "[380, 39], [420, 41], [462, 43], [506, 45], [552, 47], [600, 49], "
    "[650, 51], [702, 53], [756, 55], [812, 57], [870, 59], [930, 61], "
    "[992, 63], [1056, 65], [1122, 67], [1190, 69], [1260, 71], "
    "[1332, 73], [1406, 75], [1482, 77], [1560, 79], [1640, 81], "
    "[1722, 83], [1806, 85], [1892, 87], [1980, 89], [2070, 91], "
    "[2162, 93], [2256, 95], [2352, 97], [2450, 99], [2550, 101], "
    "[2652, 103], [2756, 105], [2862, 107], [2970, 109], [3080, 111], "
    "[3192, 113], [3306, 115], [3422, 117], [3540, 119], [3660, 121], "
    "[3782, 123], [3906, 125], [4032, 127]]")


class TestVerifyT:
    def test_passing_run(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--relation", "T", "--particles", "2",
                    "--two-s", "1", "--pure-samples", "30",
                    "--mixed-samples", "5", "--seed", "7",
                    "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["verdict"] == "weakly_discerning"
        assert data["relation"] == "T"
        assert "timestamp" in data
        assert "weakly_discerning" in capsys.readouterr().out

    def test_spin_zero_is_usage_error(self, tmp_path):
        code = run(["verify", "--relation", "T", "--particles", "2",
                    "--two-s", "0", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE

    def test_one_particle_is_usage_error(self, tmp_path):
        code = run(["verify", "--relation", "T", "--particles", "1",
                    "--two-s", "1", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE

    def test_bose_sector(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["verify", "--relation", "T", "--particles", "3",
                    "--two-s", "2", "--sector", "bose",
                    "--pure-samples", "20", "--mixed-samples", "3",
                    "--mixed-rank", "1", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK

    def test_deterministic_json_apart_from_timestamp(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run(["verify", "--relation", "T", "--particles", "2",
                        "--two-s", "1", "--pure-samples", "10",
                        "--mixed-samples", "2", "--seed", "3",
                        "--out", str(out)])
            assert code == EXIT_OK
            data = json.loads(out.read_text())
            data.pop("timestamp")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_mixed_rank_lowered_to_sector_dimension(self, tmp_path):
        # two spin-1/2 fermions span a one-dimensional sector
        out = tmp_path / "r.json"
        code = run(["verify", "--particles", "2", "--two-s", "1",
                    "--sector", "fermi", "--mixed-samples", "2",
                    "--mixed-rank", "5", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["samples"]["mixed_rank"] == 1


class TestVerifyC:
    def test_passing_run(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["verify", "--relation", "C", "--particles", "2",
                    "--two-s", "0", "--max-degree", "6",
                    "--pure-samples", "20", "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["mode"] == "symbolic_exact"

    def test_spinorial_run(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["verify", "--relation", "C", "--particles", "3",
                    "--two-s", "2", "--max-degree", "4",
                    "--pure-samples", "10", "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK

    def test_flags_at_their_defaults_accepted(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["verify", "--relation", "C", "--particles", "2",
                    "--pure-samples", "2", "--sector", "full",
                    "--tol", "1e-8", "--mixed-samples", "20",
                    "--mixed-rank", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["samples"]["wavefunctions"] == 2

    def test_arity_usage_error(self, tmp_path):
        code = run(["verify", "--relation", "C", "--particles", "1",
                    "--out", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "relation": "T", "n_particles": 2, "two_s": 2,
            "n_pure_samples": 10, "n_mixed_samples": 2, "seed": 1,
            "out": str(tmp_path / "from_file.json"),
        }))
        out = tmp_path / "override.json"
        code = run(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()
        data = json.loads(out.read_text())
        assert data["two_s"] == 2

    def test_unknown_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["verify", "--config", str(cfg)]) == EXIT_USAGE


class TestRejectedBeforeWork:
    @pytest.mark.parametrize("config,flags", [
        ([1, 2], []),
        ({"n_particles": "3"}, []),
        ({"n_particles": 2.5}, []),
        ({"two_s": True}, []),
        (None, ["--tol", "-1"]),
        (None, ["--tol", "nan"]),
        (None, ["--tol", "inf"]),
        (None, ["--mixed-rank", "0"]),
        (None, ["--out", "{tmp}/missing/r.json"]),
        (None, ["--relation", "C", "--sector", "bose"]),
        (None, ["--particles", "3", "--two-s", "1", "--sector", "fermi"]),
        (None, ["--pure-samples", "0", "--mixed-samples", "0"]),
        (None, ["--relation", "C", "--pure-samples", "0"]),
        (None, ["--relation", "C", "--tol", "1e-6"]),
        ({"relation": "C", "tol": 1e-6}, []),
        (None, ["--relation", "C", "--mixed-samples", "5"]),
        (None, ["--relation", "C", "--mixed-rank", "1"]),
        (None, ["--relation", "T", "--max-degree", "8"]),
        ({"max_degree": 8}, []),
        ({"relation": "X"}, []),
        ({"format": "json"}, []),
        (None, ["--relation", "T", "--seed", "-1"]),
        (None, ["--relation", "C", "--seed", "-1"]),
    ], ids=["non-object-config", "string-int", "float-int", "bool-int",
            "negative-tol", "nan-tol", "inf-tol", "zero-mixed-rank",
            "missing-out-dir", "C-with-sector", "empty-fermi-sector",
            "T-without-samples", "C-without-wavefunctions", "C-with-tol",
            "C-with-tol-in-config", "C-with-mixed-samples",
            "C-with-mixed-rank", "T-with-max-degree",
            "T-with-max-degree-in-config", "unknown-relation",
            "format-in-config", "T-negative-seed", "C-negative-seed"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, config, flags):
        argv = ["verify", "--out", str(tmp_path / "r.json")]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        argv += [f.format(tmp=tmp_path) for f in flags]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("relation", ["T", "C"])
    @pytest.mark.parametrize("cap", ["abc", "0", "-4", "2.5"])
    def test_malformed_dim_cap(self, tmp_path, capsys, monkeypatch,
                               relation, cap):
        monkeypatch.setenv("DISCERNLAB_DIM_CAP", cap)
        out = tmp_path / "r.json"
        assert run(["verify", "--relation", relation,
                    "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "DISCERNLAB_DIM_CAP" in err
        assert not out.exists()


class TestResourceCaps:
    def assert_exits_3(self, argv, out, capsys):
        assert run(argv + ["--out", str(out)]) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("resource error:") and err.count("\n") == 1
        assert not out.exists()
        return err

    def test_dimension_cap(self, tmp_path, capsys):
        # 2^13 = 8192 exceeds the default cap of 4096
        self.assert_exits_3(["verify", "--particles", "13", "--two-s", "1"],
                            tmp_path / "r.json", capsys)

    @pytest.mark.parametrize("degree", ["31", "32", "33"])
    def test_degree_cap_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                        degree):
        # [P_a, Q_b] raises an exponent by 2, so 30 is the largest degree
        def drawn(*args):
            raise AssertionError("a wavefunction was drawn")

        monkeypatch.setattr(discern, "draw_wavefunctions", drawn)
        err = self.assert_exits_3(["verify", "--relation", "C",
                                   "--particles", "2", "--max-degree", degree],
                                  tmp_path / "r.json", capsys)
        assert "cap 32" in err

    def test_largest_degree_passes(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "--relation", "C", "--particles", "2",
                    "--max-degree", "30", "--pure-samples", "3",
                    "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["samples"]["max_degree"] == 30

    # at cap 64, N=6 spin-1/2 samples have 64 amplitudes each and the
    # budget is 64^2 = 4096 amplitudes: 24 pure + 20 rank-2 mixed fill it
    SAMPLE_BUDGET = ["verify", "--particles", "6", "--two-s", "1",
                     "--mixed-samples", "20", "--mixed-rank", "2"]

    def test_sample_budget_before_any_draw(self, tmp_path, capsys,
                                           monkeypatch):
        def drawn(*args):
            raise AssertionError("a state was drawn")

        monkeypatch.setenv("DISCERNLAB_DIM_CAP", "64")
        monkeypatch.setattr(discern, "sample_states", drawn)
        err = self.assert_exits_3(self.SAMPLE_BUDGET + ["--pure-samples", "25"],
                                  tmp_path / "r.json", capsys)
        assert "4160 sample amplitudes exceed the budget 4096" in err

    def test_full_sample_budget_passes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISCERNLAB_DIM_CAP", "64")
        out = tmp_path / "r.json"
        assert run(self.SAMPLE_BUDGET + ["--pure-samples", "24",
                                         "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["samples"]["pure"] == 24

    def test_sector_dimension_cap_before_any_draw(self, tmp_path, capsys,
                                                  monkeypatch):
        # 30 spin-3/2 bosons have C(33, 3) = 5456 states, above 4096
        def drawn(*args):
            raise AssertionError("a state was drawn")

        monkeypatch.setattr(discern, "sample_states", drawn)
        err = self.assert_exits_3(["verify", "--sector", "bose",
                                   "--particles", "30", "--two-s", "3"],
                                  tmp_path / "r.json", capsys)
        assert "bose sector dimension 5456 exceeds cap 4096" in err

    # the same N=6 spin-1/2 samples in the bose sector unfold on a pair
    # into 2^2 x C(5, 4) = 20 amplitudes each: 164 pure + 20 rank-2 mixed
    # hold 4080, 165 pure 4100
    def test_sector_sample_budget_before_any_draw(self, tmp_path, capsys,
                                                  monkeypatch):
        def drawn(*args):
            raise AssertionError("a state was drawn")

        monkeypatch.setenv("DISCERNLAB_DIM_CAP", "64")
        monkeypatch.setattr(discern, "sample_states", drawn)
        err = self.assert_exits_3(
            self.SAMPLE_BUDGET + ["--sector", "bose", "--pure-samples", "165"],
            tmp_path / "r.json", capsys)
        assert "4100 sample amplitudes exceed the budget 4096" in err

    def test_sector_sample_budget_passes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISCERNLAB_DIM_CAP", "64")
        out = tmp_path / "r.json"
        assert run(self.SAMPLE_BUDGET + ["--sector", "bose",
                                         "--pure-samples", "164",
                                         "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("sector,two_s", [("bose", "89"),
                                              ("fermi", "90")])
    def test_pair_block_cap_before_the_block(self, tmp_path, capsys,
                                             monkeypatch, sector, two_s):
        # D_2 = 4095 states pass the cap, but K_12 would hold d^4 = 90^4
        # or 91^4 entries, above 4096^2
        def built(*args):
            raise AssertionError("the dense pair block was built")

        monkeypatch.setattr(SpinLabel, "pair_blocks", property(built))
        monkeypatch.setattr(discern, "sample_states", built)
        err = self.assert_exits_3(["verify", "--sector", sector,
                                   "--particles", "2", "--two-s", two_s],
                                  tmp_path / "r.json", capsys)
        assert "pair block" in err

    def test_pair_block_at_the_cap_passes(self, tmp_path, capsys,
                                          monkeypatch):
        # at cap 16 the pair block may hold 16^2 entries: d = 4 fills it
        # and d = 5 is refused
        monkeypatch.setenv("DISCERNLAB_DIM_CAP", "16")
        flags = ["verify", "--sector", "bose", "--particles", "2",
                 "--pure-samples", "3", "--mixed-samples", "1"]
        out = tmp_path / "r.json"
        assert run(flags + ["--two-s", "3", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "weakly_discerning"
        err = self.assert_exits_3(flags + ["--two-s", "4"],
                                  tmp_path / "r4.json", capsys)
        assert "625 entries" in err

    def test_bose_far_beyond_the_product_cap(self, tmp_path):
        # 2^100 product amplitudes, 101 bose coordinates
        out = tmp_path / "r.json"
        assert run(["verify", "--sector", "bose", "--particles", "100",
                    "--two-s", "1", "--pure-samples", "3",
                    "--mixed-samples", "1", "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["verdict"] == "weakly_discerning"
        assert data["spectrum"] == [[0, 2 ** 98], [2, 3 * 2 ** 98]]
        assert main(["render", str(out)]) == EXIT_OK


class TestVerifyFixedCost:
    """What ``main`` does once per process, and the report it writes."""

    def test_parser_is_built_once(self, tmp_path):
        parser = cli.build_parser()
        for _ in range(2):
            assert run(["render", str(tmp_path / "missing.json")]) \
                == EXIT_INPUT
        assert cli.build_parser() is parser

    @pytest.mark.parametrize("argv", [
        ["--relation", "T", "--particles", "3", "--sector", "bose",
         "--pure-samples", "4", "--mixed-samples", "2"],
        ["--relation", "C", "--particles", "2", "--pure-samples", "3",
         "--max-degree", "4"],
        # 6400 pairs: longer than one block of 65,536 encoder chunks
        ["--relation", "T", "--particles", "80", "--sector", "bose",
         "--pure-samples", "3", "--mixed-samples", "1"]])
    def test_report_is_the_json_of_asdict(self, tmp_path, monkeypatch,
                                          argv):
        from dataclasses import asdict
        reports = []

        def recorded(certify):
            def wrapper(*args):
                reports.append(certify(*args))
                return reports[-1]
            return wrapper

        for name in ("certify_T", "certify_C"):
            monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
        out = tmp_path / "r.json"
        assert run(["verify", *argv, "--out", str(out)]) == EXIT_OK
        data = asdict(reports[0])
        data["timestamp"] = json.loads(out.read_text())["timestamp"]
        assert out.read_text() == json.dumps(data, indent=2,
                                             sort_keys=True) + "\n"


def test_failure_while_encoding_leaves_no_file(tmp_path, capsys,
                                              monkeypatch):
    # a value JSON cannot encode in the last pair of a report longer than
    # one block: blocks are written before the encoder fails
    certify_T, atomic_write, written = cli.certify_T, cli.atomic_write, []

    def broken(*args):
        report = certify_T(*args)
        report.pairs[-1]["witness"] = object()
        return report

    def counted(path, blocks):
        return atomic_write(path, (written.append(len(b)) or b
                                   for b in blocks))

    monkeypatch.setattr(cli, "certify_T", broken)
    monkeypatch.setattr(cli, "atomic_write", counted)
    code = run(["verify", "--particles", "80", "--sector", "bose",
                "--pure-samples", "3", "--mixed-samples", "1",
                "--out", str(tmp_path / "r.json")])
    assert code == EXIT_INTERNAL
    assert "TypeError" in capsys.readouterr().err
    assert written and all(written)  # blocks were written
    assert list(tmp_path.iterdir()) == []


def test_internal_error_exits_5_with_traceback(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "certify_T", broken)
    code = run(["verify", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


class TestRender:
    def test_render_markdown(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(["verify", "--relation", "T", "--particles", "2", "--two-s", "1",
             "--pure-samples", "10", "--mixed-samples", "2", "--seed", "3",
             "--out", str(out)])
        assert run(["render", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "weakly_discerning" in text
        assert "| a | b |" in text
        # spectrum for s=1/2: eigenvalues 0 and 2 hbar^2
        assert "(x3)" in text

    def test_render_missing_file(self, tmp_path):
        assert run(["render", str(tmp_path / "nope.json")]) == EXIT_INPUT

    def test_render_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert run(["render", str(bad)]) == EXIT_INPUT
        bad.write_bytes(b"\xff\xfe{}")  # not UTF-8
        assert run(["render", str(bad)]) == EXIT_INPUT

    # the ids end in -markdown, the one format render prints
    @pytest.mark.parametrize("edit,code", [
        (lambda data: data, EXIT_OK),
        (lambda data: {}, EXIT_INPUT),
        (lambda data: [1, 2], EXIT_INPUT),
        (lambda data: {k: v for k, v in data.items() if k != "pairs"},
         EXIT_INPUT),
        (lambda data: {**data, "pairs": [
            {k: v for k, v in data["pairs"][0].items() if k != "witness"}]
            + data["pairs"][1:]}, EXIT_INPUT),
        (lambda data: {k: v for k, v in data.items() if k != "spectrum"},
         EXIT_OK),
        (lambda data: {**data, "spectrum": []}, EXIT_OK),
        (lambda data: {**data, "spectrum": 5}, EXIT_INPUT),
        (lambda data: {**data, "spectrum": [[1]]}, EXIT_INPUT),
        (lambda data: {**data, "spectrum": [["a", 1]]}, EXIT_INPUT),
    ], ids=["report-markdown", "empty-object-markdown", "list-markdown",
            "no-pairs-markdown", "first-pair-without-witness-markdown",
            "no-spectrum-markdown", "empty-spectrum-markdown",
            "int-spectrum-markdown", "one-entry-spectrum-pair-markdown",
            "string-eigenvalue-markdown"])
    def test_render_checks_report_shape(self, tmp_path, capsys, edit, code):
        out = tmp_path / "r.json"
        assert run(["verify", "--pure-samples", "3", "--mixed-samples", "1",
                    "--out", str(out)]) == EXIT_OK
        out.write_text(json.dumps(edit(json.loads(out.read_text()))))
        capsys.readouterr()
        assert run(["render", str(out)]) == code
        captured = capsys.readouterr()
        if code == EXIT_INPUT:
            assert captured.out == ""
            assert captured.err.startswith("error:") \
                and captured.err.count("\n") == 1
        else:
            assert captured.out.startswith("# Discernibility report")

    def test_render_C_report_without_spectrum(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["verify", "--relation", "C", "--pure-samples", "3",
                    "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        del data["spectrum"]
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["render", str(out)]) == EXIT_OK
        assert "relation C" in capsys.readouterr().out

    def test_format_flags_are_gone(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["verify", "--pure-samples", "3", "--format", "markdown",
                    "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert run(["verify", "--pure-samples", "3",
                    "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert run(["render", str(out), "--format", "json"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestExactSpectrum:
    """T reports carry the spectrum as exact ints: the same bytes anywhere."""

    @pytest.mark.parametrize("n,two_s,sector,want", [
        (2, 1, "full", "[[0, 1], [2, 3]]"),
        (3, 2, "bose", "[[0, 3], [2, 9], [6, 15]]"),
        (6, 1, "full", "[[0, 16], [2, 48]]"),
        (2, 63, "full", SPIN_63_SPECTRUM),
    ], ids=["2-1-full", "3-2-bose", "6-1-full", "2-63-full"])
    def test_spectrum_bytes_and_render(self, tmp_path, capsys, n, two_s,
                                       sector, want):
        out = tmp_path / "t.json"
        assert run(["verify", "--relation", "T", "--particles", str(n),
                    "--two-s", str(two_s), "--sector", sector,
                    "--pure-samples", "2", "--mixed-samples", "1",
                    "--seed", "3", "--out", str(out)]) == EXIT_OK
        spectrum = json.loads(out.read_text())["spectrum"]
        assert json.dumps(spectrum) == want
        assert all(type(x) is int for level in spectrum for x in level)
        capsys.readouterr()
        assert run(["render", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert all(f"- {lam} (x{mult})" in lines for lam, mult in spectrum)


class TestMarkdownRenderer:
    def test_contains_pair_rows(self):
        data = {
            "relation": "T", "verdict": "weakly_discerning",
            "mode": "mixed_sampling", "n_particles": 2, "two_s": 1,
            "sector": "full", "samples": {"pure": 1}, "seed": 0,
            "tolerances": {"tol": 1e-8}, "permutation_invariant": True,
            "pairs": [{"a": 1, "b": 2, "reflexive": None,
                       "off_diagonal_fails": True, "witness": "pure[0]"}],
            "spectrum": [[0.0, 1], [2.0, 3]],
        }
        text = report_to_markdown(data)
        assert "| 1 | 2 |" in text
        assert "pure[0]" in text
