import csv
import hashlib
import json

import pytest

from heredit.cli import main, parse_inputs
from heredit.crg import crg_to_text, gray_crg
from heredit.curves import closed_form_curve
from heredit.rationals import parse_grid


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseInputs:
    def test_edcurve_jobspec(self):
        job = parse_inputs(["edcurve", "--family", "c8star", "--grid", "1/64"])
        assert job.command == "edcurve"
        assert job.params["n"] == 8
        assert job.params["points"] == parse_grid("1/64")

    def test_rejects_p_outside_unit_interval(self, capsys):
        code, _, err = run_cli(capsys, ["gamma", "--graph", "path:5", "--p", "5/3"])
        assert code == 3
        assert "p must lie in [0,1]" in err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_inputs(["gamma", "--graph", "path:5", "--frobnicate"])
        assert exc.value.code == 2

    def test_malformed_rational(self, capsys):
        code, _, _ = run_cli(capsys, ["gamma", "--graph", "path:5", "--p", "0.5"])
        assert code == 3

    def test_malformed_crg_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.crg"
        bad.write_text("crg v1\nvertices: XY\n")
        code, _, _ = run_cli(capsys, ["gfun", "--crg", str(bad), "--p", "1/2"])
        assert code == 4

    def test_malformed_graph6(self, capsys):
        code, _, _ = run_cli(capsys, ["dist", "--graph", "C", "--forbid", "path:3"])
        assert code == 4

    def test_unwritable_output_is_os_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(
            capsys, ["gfun", "--gray", "1,1", "--p", "1/3", "--out", str(out)]
        )
        assert code == 6
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


class TestSpectrumCommand:
    def test_extreme_points_of_c8star(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        code, stdout, _ = run_cli(
            capsys, ["spectrum", "--graph", "c2nstar:8", "--out", str(out)]
        )
        assert code == 0
        assert stdout == "r,s\n2,0\n1,2\n0,3\n"
        lines = out.read_text().splitlines()
        assert lines[0] == "r,s,member"
        members = {
            (int(r), int(s))
            for r, s, flag in (line.split(",") for line in lines[1:])
            if flag == "1"
        }
        assert (2, 0) in members and (3, 0) not in members

    def test_cache_hit_reproduces_bytes(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["spectrum", "--graph", "path:6", "--cache-dir", str(cache)]
        assert main(base + ["--out", str(out1)]) == 0
        capsys.readouterr()
        assert list(cache.glob("*.json")), "first run must populate the cache"
        assert main(base + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_corrupt_cache_entry_recomputes(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out = tmp_path / "a.csv"
        base = ["spectrum", "--graph", "path:5", "--cache-dir", str(cache)]
        assert main(base + ["--out", str(out)]) == 0
        capsys.readouterr()
        entry = next(cache.glob("*.json"))
        good = out.read_bytes()
        entry.write_text("{ not json")
        assert main(base + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == good

    def test_version_bump_misses_cache(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        out = tmp_path / "a.csv"
        base = ["spectrum", "--graph", "path:5", "--cache-dir", str(cache)]
        assert main(base + ["--out", str(out)]) == 0
        capsys.readouterr()
        before = len(list(cache.glob("*.json")))
        monkeypatch.setattr("heredit.cli.__version__", "0.1.0+test")
        assert main(base + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert len(list(cache.glob("*.json"))) == before + 1


class TestCurveCommands:
    def test_edcurve_matches_library(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys,
            ["edcurve", "--family", "c8star", "--grid", "1/16", "--out", str(out)],
        )
        assert code == 0
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["p", "value", "source", "witness"]
        curve = closed_form_curve("c8star", 8, parse_grid("1/16"))
        assert len(rows) == 1 + len(curve.samples)
        for cells, (p, value), wits in zip(rows[1:], curve.samples, curve.witnesses):
            assert cells[0] == f"{p.numerator}/{p.denominator}"
            assert cells[1] == f"{value.numerator}/{value.denominator}"
            assert cells[2] == "closed_form"
            assert cells[3] == ";".join(wits)

    def test_edcurve_compare_sources_zero_diff(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code, _, _ = run_cli(
            capsys,
            [
                "edcurve", "--family", "c8star", "--grid", "1/8",
                "--source", "closed_form,gamma,search", "--m", "3",
                "--out", str(out),
            ],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,value_closed_form,value_gamma,value_search,diff"
        assert all(line.rsplit(",", 1)[1] == "0/1" for line in lines[1:])

    def test_edcurve_refuses_out_of_range_grid(self, capsys):
        code, _, err = run_cli(
            capsys, ["edcurve", "--family", "path", "--n", "7", "--grid", "1/4"]
        )
        assert code == 3
        assert "stated on" in err

    def test_edcurve_restrict_grid(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            ["edcurve", "--family", "path", "--n", "7", "--grid", "1/4", "--restrict-grid"],
        )
        assert code == 0
        points = [line.split(",")[0] for line in stdout.splitlines()[1:]]
        assert points == ["1/2", "3/4", "1/1"]

    def test_edcurve_analyze_prints_summary(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            ["edcurve", "--family", "c8star", "--grid", "1/16", "--analyze"],
        )
        assert code == 0
        assert "concavity_violations=0" in stdout

    def test_gamma_single_point(self, capsys):
        code, stdout, _ = run_cli(
            capsys, ["gamma", "--graph", "c2nstar:8", "--p", "1/3"]
        )
        assert code == 0
        assert stdout.splitlines()[1].startswith("1/3,1/6,gamma,")

    def test_float_display_only_affects_stdout(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys,
            ["edcurve", "--family", "c8star", "--grid", "1/8", "--float", "--out", str(out)],
        )
        assert code == 0
        assert "0.5,0.16666666666666666" not in out.read_text()
        code, stdout, _ = run_cli(
            capsys, ["edcurve", "--family", "c8star", "--grid", "1/2", "--float"]
        )
        assert code == 0
        assert "0.5" in stdout

    def test_jobs_parallelism_is_deterministic(self, tmp_path, capsys):
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        argv = ["edcurve", "--family", "c8star", "--grid", "1/32"]
        assert main(argv + ["--out", str(seq)]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(par)]) == 0
        capsys.readouterr()
        assert seq.read_bytes() == par.read_bytes()


class TestSearchCommand:
    def test_search_with_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "search", "--forbid", "c2nstar:8", "--max-size", "3",
            "--p", "1/3", "--cache-dir", str(cache),
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        first = out1.read_text().splitlines()[1].split(",")
        assert first[0] == "1/3" and first[1] == "1/6"

    def test_search_m5_golden_bytes(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            [
                "search", "--forbid", "cycle:4", "--max-size", "5", "--allow-large",
                "--p", "45/64", "--no-cache",
            ],
        )
        assert code == 0
        data = stdout.encode()
        assert len(data) == 6470
        assert hashlib.sha256(data).hexdigest() == (
            "f592f827582ed59672ae4f8ea1fede3009affb7b8009b34198443af00a381299"
        )
        p, value, source, witnesses = stdout.splitlines()[1].split(",")
        assert (p, value, source) == ("45/64", "855/4096", "search-m5")
        witnesses = witnesses.split(";")
        assert len(witnesses) == 396
        # enumeration order: ascending size, then the canonical encoding
        assert witnesses == sorted(witnesses, key=lambda w: (len(w), w))


class TestCrgCommands:
    def test_gfun_json(self, tmp_path, capsys):
        crg_path = tmp_path / "k11.crg"
        crg_path.write_text(crg_to_text(gray_crg(1, 1)))
        code, stdout, _ = run_cli(
            capsys, ["gfun", "--crg", str(crg_path), "--p", "1/3"]
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload == {"value": "2/9", "weights": ["2/3", "1/3"], "support": [0, 1]}

    def test_embed_with_witness(self, tmp_path, capsys):
        crg_path = tmp_path / "k21.crg"
        crg_path.write_text(crg_to_text(gray_crg(2, 1)))
        code, stdout, _ = run_cli(
            capsys, ["embed", "--graph", "c2nstar:8", "--crg", str(crg_path)]
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["embeds"] is True
        assert len(payload["witness"]) == 8

    def test_embed_gray_shortcut_negative(self, capsys):
        code, stdout, _ = run_cli(
            capsys, ["embed", "--graph", "c2nstar:8", "--gray", "1,2"]
        )
        assert code == 0
        assert json.loads(stdout) == {"embeds": False, "witness": None}

    def test_pcore(self, capsys):
        code, stdout, _ = run_cli(
            capsys, ["pcore", "--gray", "2,0", "--p", "1/3"]
        )
        assert code == 0
        assert json.loads(stdout) == {"p_core": True, "g": "1/6"}

    def test_crg_text_roundtrip_via_files(self, tmp_path):
        from heredit.crg import crg_from_text

        source = crg_to_text(gray_crg(1, 2))
        path = tmp_path / "k.crg"
        path.write_text(source)
        assert crg_to_text(crg_from_text(path.read_text())) == source


class TestDistAndEstimate:
    def test_dist_c5_p3(self, capsys):
        code, stdout, _ = run_cli(
            capsys, ["dist", "--graph", "cycle:5", "--forbid", "path:3"]
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "edits,normalized,witness_graph6"
        assert lines[1].startswith("3,3/10,")

    def test_dist_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, ["dist", "--graph", "cycle:8", "--forbid", "cycle:8"])
        _, second, _ = run_cli(capsys, ["dist", "--graph", "cycle:8", "--forbid", "cycle:8"])
        assert first == second
        assert first.splitlines()[1].startswith("1,1/28,")

    def test_estimate_pinned(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            ["estimate", "--n", "6", "--p", "1/2", "--forbid", "path:4",
             "--samples", "50", "--seed", "7"],
        )
        assert code == 0
        assert stdout.splitlines()[1] == "2/15,Eqd_,0"
