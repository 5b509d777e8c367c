import argparse
import csv
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from heredit import cli, curves
from heredit.cli import main, parse_inputs
from heredit.crg import CRG, crg_to_text, enumerate_crgs, gray_crg
from heredit.errors import ValidationError
from heredit.curves import closed_form_curve
from heredit.limits import MAX_ANALYZE_POINTS, MAX_GRID_POINTS, MAX_QP_SIZE
from heredit.rationals import format_fraction, parse_grid


SEARCH_ARGV = ["search", "--forbid", "c2nstar:8", "--max-size", "3", "--p", "1/3"]
SEARCH_ROW = "1/3,1/6,search-m3,"  # the start of SEARCH_ARGV's one row
INT_DIGITS = sys.get_int_max_str_digits()  # CPython's int() conversion limit


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_capped(argv: list[str], address_space: int) -> subprocess.CompletedProcess:
    """``main(argv)`` in a child process whose address space is capped at
    ``address_space`` bytes, so an allocation that grows with the input
    fails there instead of taking the machine's memory."""
    script = (
        "import resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space})); "
        "from heredit.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("HEREDIT_CACHE_DIR", None)
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def _in_process_pool(started: list[int]):
    """A stand-in for ``ProcessPoolExecutor`` that maps in this process and
    records each pool's worker count in ``started``."""

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return InProcessPool


class TestParseInputs:
    def test_edcurve_jobspec(self):
        job = parse_inputs(["edcurve", "--family", "c8star", "--grid", "1/64"])
        assert job.command == "edcurve"
        assert job.n == 8
        assert job.points == parse_grid("1/64")

    def test_restricted_grid_is_the_filtered_grid(self):
        bounds = ("0", "1/3", "1/2", "9/10", "1")
        for step in ("1", "1/7", "3/10", "1/64"):
            full = parse_grid(step)
            for lo in bounds:
                for hi in bounds:
                    argv = ["gamma", "--graph", "path:4", "--grid", step,
                            "--from", lo, "--to", hi]
                    want = tuple(p for p in full if Fraction(lo) <= p <= Fraction(hi))
                    if want:
                        assert parse_inputs(argv).points == want
                    else:
                        with pytest.raises(ValidationError, match="left no evaluation points"):
                            parse_inputs(argv)

    def test_restricted_grid_builds_only_its_points(self):
        # the full grid of this step has two million points
        argv = ["gamma", "--graph", "path:4", "--grid", "1/2000000",
                "--from", "1/2", "--to", "1/2"]
        start = time.perf_counter()
        assert parse_inputs(argv).points == (Fraction(1, 2),)
        assert time.perf_counter() - start < 1

    def test_grid_capped_by_the_points_it_would_build(self):
        # the cap counts the points between --from and --to, before any is built
        assert len(parse_grid("1/200000", hi=Fraction(1, 2))) == MAX_GRID_POINTS
        with pytest.raises(ValidationError, match=f"at most {MAX_GRID_POINTS} allowed"):
            parse_grid("1/200002", hi=Fraction(1, 2))
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="has 1000000000000000001 points"):
            parse_grid("1/1000000000000000000")
        assert time.perf_counter() - start < 1

    def test_rejects_p_outside_unit_interval(self, capsys):
        code, _, err = run_cli(capsys, ["gamma", "--graph", "path:5", "--p", "5/3"])
        assert code == 3
        assert "p must lie in [0,1]" in err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_inputs(["gamma", "--graph", "path:5", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(("argv", "option"), [
        (["gfun", "--gray", "2,1", "--p", "1/3"], "--float"),
        (["spectrum", "--graph", "path:4"], "--jobs 2"),
        (["estimate", "--n", "6", "--p", "1/2", "--forbid", "path:4"], "--jobs 2"),
        (["dist", "--graph", "cycle:5", "--forbid", "path:3"], "--cache-dir D"),
        # search has no result cache
        (SEARCH_ARGV, "--cache-dir D"),
        # the no-op --allow-large stays on search only
        (["edcurve", "--family", "c8star", "--grid", "1/4"], "--allow-large"),
        # the spectrum table is always 0 <= r, s <= |V(H)|, which holds every member
        (["spectrum", "--graph", "path:4"], "--r-max 3"),
        (["spectrum", "--graph", "path:4"], "--s-max 3"),
    ], ids=["gfun --float", "spectrum --jobs", "estimate --jobs", "dist --cache-dir",
            "search --cache-dir", "edcurve --allow-large", "spectrum --r-max",
            "spectrum --s-max"])
    def test_option_a_command_does_not_use_is_usage_error(
        self, capsys, monkeypatch, argv, option
    ):
        def forbidden(job):
            raise AssertionError("work started before the option was refused")

        monkeypatch.setitem(cli._HANDLERS, argv[0], forbidden)
        with pytest.raises(SystemExit) as exc:
            main(argv + option.split())
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}\n" in capsys.readouterr().err

    def test_readme_option_table_matches_parser(self):
        """Each row of the README's option table under "## CLI" lists the
        long options of its subcommand, in the parser's order."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = readme.split("\n## CLI\n", 1)[1].splitlines()
        rows = itertools.takewhile(
            lambda line: line.startswith("|"), lines[lines.index("| command | options |") + 2 :]
        )
        table = {
            row.split("|")[1].strip().strip("`"): re.findall(r"`(--[\w-]+)`", row.split("|")[2])
            for row in rows
        }
        subparsers = next(action for action in cli._build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        options = {
            name: [opt for action in sub._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"]
            for name, sub in subparsers.choices.items()
        }
        assert table == options

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_one_command_parser_reads_as_the_full_tree(self, capsys, monkeypatch, command):
        """``parse_inputs`` builds only the named command's options, and
        that parser's ``--help`` and usage errors are byte for byte those
        of the full tree."""
        built, real_build = [], cli._build_parser

        def recording(name=None):
            built.append(name)
            return real_build(name)

        monkeypatch.setattr(cli, "_build_parser", recording)
        outputs = []
        for parser in (real_build(command), real_build()):
            texts = []
            for argv in ([command, "--help"], [command], [command, "--frobnicate"]):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                texts.append((exc.value.code, *capsys.readouterr()))
            outputs.append(texts)
        assert outputs[0] == outputs[1]
        assert [code for code, _, _ in outputs[0]] == [0, 2, 2]
        with pytest.raises(SystemExit):
            parse_inputs([command])
        with pytest.raises(SystemExit):
            parse_inputs(["--help"])
        capsys.readouterr()
        assert built == [command, None]
        # the other subcommands are registered with no options of their own
        subparsers = next(action for action in real_build(command)._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert list(subparsers.choices) == list(cli._COMMANDS)
        assert {name for name, sub in subparsers.choices.items()
                if len(sub._actions) > 1} == {command}

    def test_malformed_rational(self, capsys):
        code, _, _ = run_cli(capsys, ["gamma", "--graph", "path:5", "--p", "0.5"])
        assert code == 3

    def test_malformed_crg_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.crg"
        bad.write_text("crg v1\nvertices: XY\n")
        code, _, _ = run_cli(capsys, ["gfun", "--crg", str(bad), "--p", "1/2"])
        assert code == 4

    def test_crg_rows_checked_before_colors_are_collected(self, tmp_path):
        # 70,000 vertices claim 2.4e9 edge colours, but row 0 lists one
        claim = tmp_path / "claim.crg"
        claim.write_text("crg v1\nvertices: " + "W" * 70_000 + "\n" + "x\n" * 69_999)
        done = _run_capped(["gfun", "--crg", str(claim), "--p", "1/2"], 2 << 30)
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr == "error: edge row 0 must list 69999 colors\n"

    def test_malformed_graph6(self, capsys):
        code, _, _ = run_cli(capsys, ["dist", "--graph", "C", "--forbid", "path:3"])
        assert code == 4

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_rejects_jobs_below_one(self, capsys, jobs):
        code, stdout, err = run_cli(
            capsys, ["edcurve", "--family", "c8star", "--grid", "1/4", "--jobs", jobs]
        )
        assert code == 3
        assert stdout == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    def test_jobs_capped_at_cpu_count(self, capsys, monkeypatch):
        started = []
        argv = ["gamma", "--graph", "path:5", "--grid", "1/64"]
        _, serial, _ = run_cli(capsys, argv + ["--jobs", "1"])
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _in_process_pool(started))
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        code, stdout, _ = run_cli(capsys, argv + ["--jobs", "1000"])
        assert code == 0
        assert started == [2]
        assert stdout == serial
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        code, stdout, _ = run_cli(capsys, argv + ["--jobs", "1000"])
        assert code == 0
        assert started == [2], "one CPU runs serially, without a pool"
        assert stdout == serial

    @pytest.mark.parametrize("argv", [
        ["search", "--forbid", "c2nstar:8", "--max-size", "3", "--grid", "1/8"],
        ["edcurve", "--family", "c8star", "--source", "gamma,search", "--m", "3",
         "--grid", "1/8"],
    ])
    def test_jobs_enumerate_once_in_the_parent(self, capsys, monkeypatch, argv):
        """Each ``--jobs`` chunk runs the search stages for its own points,
        and nothing in the parent: one core pass and one growth pass for
        ``search``, the core pass alone for a multi-source ``edcurve``,
        which prints no witness."""
        argv = argv + ["--no-cache"]
        _, serial, _ = run_cli(capsys, argv + ["--jobs", "1"])
        code, parallel, _ = run_cli(capsys, argv + ["--jobs", "2"])
        assert code == 0
        assert parallel == serial

        # in process, so the enumerations of every worker are counted here
        started, enumerated = [], []
        real = curves.enumerate_crgs

        def counted(*args, **kwargs):
            enumerated.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(curves, "enumerate_crgs", counted)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _in_process_pool(started))
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        code, stdout, _ = run_cli(capsys, argv + ["--jobs", "2"])
        assert code == 0
        assert stdout == serial
        assert started, "the grid went to a pool"
        # the 9 points of 1/8 go to two chunks of 5 and 4
        passes = 2 if argv[0] == "search" else 1
        assert enumerated == [(3,)] * 2 * passes

    @pytest.mark.parametrize(("argv", "message"), [
        (SEARCH_ARGV[:4] + ["0", "--p", "1/3"], "--max-size must lie in 1..5, got 0"),
        (SEARCH_ARGV[:4] + ["6", "--p", "1/3"], "--max-size must lie in 1..5, got 6"),
        (SEARCH_ARGV[:4] + ["6", "--grid", "1/16", "--jobs", "2"],
         "--max-size must lie in 1..5, got 6"),
        (["edcurve", "--family", "c8star", "--source", "gamma,search", "--m", "6",
          "--grid", "1/4"], "--m must lie in 1..5, got 6"),
        (["edcurve", "--family", "path", "--n", "7", "--source", "search,closed_form",
          "--m", "3", "--grid", "1/4"],
         "path:7 closed form is stated on [1/2, 1]; refusing grid points 0, 1/4"),
        (["gfun", "--gray", "2000,0", "--p", "1/2"],
         "--gray K(2000,0) has 2000 vertices; at most 12 allowed"),
        (["pcore", "--gray", "7,6", "--p", "1/2"],
         "--gray K(7,6) has 13 vertices; at most 12 allowed"),
        (["embed", "--graph", "path:3", "--gray", "13,0"],
         "--gray K(13,0) has 13 vertices; at most 12 allowed"),
        # "²" is a digit to str.isdigit but not an integer to int()
        (["gfun", "--gray", "²,1", "--p", "1/2"],
         "--gray expects 'r,s' with integers, got '²,1'"),
        (["edcurve", "--family", "c8star", "--source", "closed_form", "--p", "1/3",
          "--analyze"], "--analyze needs at least 3 evaluation points, got 1"),
        (["edcurve", "--family", "path", "--n", "7", "--grid", "1/4", "--restrict-grid",
          "--from", "3/4", "--analyze"],
         "--analyze needs at least 3 evaluation points, got 2"),
        (["edcurve", "--family", "c8star", "--source", "closed_form,closed_form",
          "--grid", "1/2"], "repeated curve source(s): closed_form"),
        (["edcurve", "--family", "c8star", "--source", "search,gamma,search,gamma",
          "--grid", "1/2"], "repeated curve source(s): gamma, search"),
        (["search", "--forbid", "path:17", "--max-size", "5", "--grid", "1/8", "--jobs", "2"],
         "embedding pattern capped at 16 vertices"),
        (["edcurve", "--family", "path", "--n", "17", "--source", "closed_form,search",
          "--m", "3", "--grid", "1/8", "--restrict-grid", "--jobs", "2"],
         "embedding pattern capped at 16 vertices"),
        (["search", "--forbid", "path:5", "--max-size", "3", "--p", "1/3", "--from", "1/2"],
         "--from and --to apply only to --grid, not to --p"),
        # integers longer than int() converts are refused, not internal errors
        (["gamma", "--graph", "path:5", "--p", "1/" + "9" * 5000],
         f"rational denominator has 5000 digits; at most {INT_DIGITS} allowed"),
        (["gfun", "--gray", "9" * 5000 + ",1", "--p", "1/2"],
         f"--gray r has 5000 digits; at most {INT_DIGITS} allowed"),
        (["spectrum", "--graph", "path:" + "9" * 5000],
         f"path order has 5000 digits; at most {INT_DIGITS} allowed"),
        # grids are refused by the points they would build
        (["gamma", "--graph", "path:4", "--grid", "1/1000000000"],
         "grid 1/1000000000 has 1000000001 points to evaluate; at most 100001 allowed"),
        (["edcurve", "--family", "c8star", "--grid", "1/1000000", "--from", "1/2"],
         "grid 1/1000000 has 500001 points to evaluate; at most 100001 allowed"),
        # --analyze tests every pair of points, so its points are capped;
        # --from, --to and --restrict-grid count
        (["edcurve", "--family", "c8star", "--grid", "1/1025", "--analyze"],
         "--analyze needs at most 1025 evaluation points, got 1026"),
        (["edcurve", "--family", "c8star", "--source", "gamma,search", "--m", "3",
          "--grid", "1/4000", "--from", "1/2", "--analyze", "--jobs", "2"],
         "--analyze needs at most 1025 evaluation points, got 2001"),
        (["edcurve", "--family", "path", "--n", "7", "--grid", "1/2050", "--restrict-grid",
          "--analyze"], "--analyze needs at most 1025 evaluation points, got 1026"),
    ])
    def test_refused_before_any_work(self, capsys, monkeypatch, argv, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the input was refused")

        # the CLI imports these from their defining modules when it runs them
        for name in ("curves.search_curve", "curves.core_curve", "spectrum.clique_spectrum",
                     "curves.closed_form_curve", "crg.gray_crg"):
            monkeypatch.setattr(f"heredit.{name}", forbidden)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", forbidden)
        code, stdout, err = run_cli(capsys, argv + ["--no-cache"])
        assert code == 3
        assert stdout == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["dist", "--graph", "cycle:5", "--forbid", "path:3", "--node-limit", "-3"],
        ["estimate", "--n", "6", "--p", "1/2", "--forbid", "path:4", "--samples", "5",
         "--node-limit", "0"],
    ])
    def test_node_limit_below_one_refused_before_any_search(
        self, capsys, monkeypatch, argv
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("search started before the node limit was refused")

        for name in ("_flip_search", "_sample_rows"):
            monkeypatch.setattr(f"heredit.editing.{name}", forbidden)
        code, stdout, err = run_cli(capsys, argv)
        assert code == 3
        assert stdout == ""
        assert err == f"error: node limit must be at least 1, got {argv[-1]}\n"

    @pytest.mark.parametrize(("argv", "message"), [
        (["estimate", "--n", "-1", "--p", "1/2", "--forbid", "path:4"],
         "n must be at least 0, got -1"),
        (["estimate", "--n", "6", "--p", "1/2", "--forbid", "path:1"],
         "forbidden graph must have at least 2 vertices"),
    ])
    def test_estimate_inputs_refused_before_sampling(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("sampling started before the input was refused")

        for name in ("_flip_search", "_sample_rows"):
            monkeypatch.setattr(f"heredit.editing.{name}", forbidden)
        out = tmp_path / "estimate.csv"
        code, stdout, err = run_cli(capsys, argv + ["--out", str(out)])
        assert (code, stdout) == (3, "")
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_no_core_refusal_writes_no_artifact(self, tmp_path, capsys):
        out = tmp_path / "search.csv"
        code, stdout, err = run_cli(capsys, [
            "search", "--forbid", "path:1", "--max-size", "3", "--p", "1/2", "--out", str(out),
        ])
        assert (code, stdout) == (3, "")
        assert err == "error: every CRG class admits the forbidden graph\n"
        assert not out.exists()

    def test_analyze_refusal_writes_no_artifact(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, stdout, err = run_cli(capsys, [
            "edcurve", "--family", "c8star", "--grid", "1/1", "--analyze", "--out", str(out),
        ])
        assert (code, stdout) == (3, "")
        assert err == "error: --analyze needs at least 3 evaluation points, got 2\n"
        assert not out.exists()
        code, stdout, err = run_cli(capsys, [
            "edcurve", "--family", "c8star", "--grid", "1/100000", "--analyze", "--out", str(out),
        ])
        assert (code, stdout) == (3, "")
        assert err == "error: --analyze needs at most 1025 evaluation points, got 100001\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--grid", "1/1024"],
        ["--grid", "1/4096", "--to", "1/4"],
        ["--grid", "1/2048", "--from", "1/4", "--to", "3/4"],
    ])
    def test_analyze_accepts_up_to_1025_points(self, argv):
        job = parse_inputs(["edcurve", "--family", "c8star", "--analyze", *argv])
        assert len(job.points) == MAX_ANALYZE_POINTS == 1025

    def test_unwritable_output_is_os_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(
            capsys, ["gfun", "--gray", "1,1", "--p", "1/3", "--out", str(out)]
        )
        assert code == 6
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


SOLVER = ("heredit.crg", "heredit.curves", "heredit.gfun", "heredit.spectrum")
ORACLE = ("heredit.editing",)  # with the edit oracle's loop compiler
CACHE_IO = ("hashlib", "_hashlib", "tempfile")
POOL = ("concurrent", "multiprocessing")
CODEGEN = ("dataclasses", "inspect")  # the value types generate no code at import
CURVE_ARGV = ["edcurve", "--family", "c8star", "--source", "closed_form,gamma,search",
              "--m", "4", "--grid", "1/4", "--analyze", "--no-cache"]


def _main_code(argv: list[str]) -> str:
    return f"from heredit.cli import main; main({argv!r})"


class TestImports:
    @pytest.mark.parametrize(("code", "absent"), [
        ("import heredit.cli", POOL),
        ("import heredit", ("heredit.",)),
        ("import heredit; assert heredit.Graph is heredit.graphs.Graph", SOLVER),
        (_main_code(["estimate", "--n", "6", "--p", "1/2", "--forbid", "path:4",
                     "--samples", "5", "--no-cache"]), SOLVER + CACHE_IO + POOL + CODEGEN),
        (_main_code(["dist", "--graph", "cycle:5", "--forbid", "path:3", "--no-cache"]),
         SOLVER + CACHE_IO + POOL + CODEGEN),
        (_main_code(SEARCH_ARGV), ORACLE + CACHE_IO + POOL + CODEGEN),
        (_main_code(CURVE_ARGV), ORACLE + CACHE_IO + POOL + CODEGEN),
    ], ids=["cli-no-pool", "package-no-submodule", "graph-no-solver", "estimate",
            "dist", "search", "edcurve"])
    def test_import_footprint(self, tmp_path, code, absent):
        """Each command imports only the layers it runs: the modules named
        in ``absent`` are never loaded by ``code``, even with
        ``HEREDIT_CACHE_DIR`` set.  ``-S`` keeps site hooks (``.pth``
        files) from loading modules before ``code`` runs."""
        script = (f"import sys; {code}; print(sorted(m for m in sys.modules"
                  f" if m.startswith({absent!r})))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   HEREDIT_CACHE_DIR=str(tmp_path / "cache"))
        done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_every_limit_is_read_by_another_module(self):
        """Each constant and function ``heredit.limits`` defines is imported
        from it, or read as ``limits.NAME``, by another module of the
        package, so a cap cannot outlive its last user."""
        import ast

        import heredit

        package = Path(heredit.__file__).parent
        tree = ast.parse((package / "limits.py").read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        read = set()
        for path in package.glob("*.py"):
            if path.name == "limits.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module in ("limits", "heredit.limits"):
                    read |= {alias.name for alias in node.names}
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "limits"):
                    read.add(node.attr)
        assert defined and defined <= read, sorted(defined - read)

    def test_every_option_is_read(self):
        """Each option ``cli`` registers is read as ``job.<dest>`` in
        ``cli.py``, so an option cannot outlive its last use.  The
        compatibility flags in ``INERT`` are the exception: they must be
        read nowhere in the package, so they stay without effect."""
        import ast

        import heredit

        INERT = {"no_cache", "allow_large"}
        package = Path(heredit.__file__).parent
        tree = ast.parse((package / "cli.py").read_text())
        dests, read = set(), set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                keywords = {kw.arg: kw.value.value for kw in node.keywords
                            if isinstance(kw.value, ast.Constant)}
                if keywords.get("action") == "version":  # stores no attribute
                    continue
                dests.add(keywords.get("dest")
                          or node.args[0].value.lstrip("-").replace("-", "_"))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        assert INERT <= dests
        assert dests - INERT <= read, sorted(dests - INERT - read)
        for path in package.glob("*.py"):
            names = {node.attr if isinstance(node, ast.Attribute) else node.value
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, (ast.Attribute, ast.Constant))}
            assert not INERT & names, (path.name, sorted(INERT & names))

    def test_lazy_exports(self):
        import heredit

        for name in heredit.__all__:
            value = getattr(heredit, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert set(heredit.__all__) <= set(dir(heredit))
        namespace: dict = {}
        exec("from heredit import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(heredit.__all__)
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            heredit.no_such_name


# byte length and sha256 of each job's stdout; the path given to
# --extremes-out never reaches stdout
GOLDEN = [
    ("spectrum --graph c2nstar:8", 491,
     "5de5d9122351f13113f615906434b22823e76a33d55a6c19ae7f4d10d6b7a131"),
    ("spectrum --graph ctilde:9 --extremes-out {tmp}/extremes.csv", 621,
     "ccdd09e0c010d7f41a93b925a0e92f59fecbeb93c3a0103d7dd45b72bda18848"),
    ("gamma --graph ctilde:9 --grid 1/16 --jobs 2 --float", 621,
     "a244bbc428ad87cf437e912d1f9982e2b958e3d52a787b90806ae1b2838a1254"),
    # the largest forbidden graphs the per-pair spectrum took, pinned there
    ("spectrum --graph cycle:13", 1293,
     "f86ffee0489e4ff909dfa0513e1b7db856a5c80ffbec9b410dd8e6b9db1cfd4f"),
    ("gamma --graph ctilde:13 --grid 1/8", 256,
     "cf287c19dbc4180540099a5490f7cb66339827b81abea7123139ae9a277b3b0e"),
    ("edcurve --family c8star --source closed_form,gamma,search --m 4 --grid 1/4 --analyze",
     409, "9f0f04f777fdd2671bee1545b408e478150ab30049aa2d9fff493201b32e9ccb"),
    ("edcurve --family c8star --source search --m 3 --grid 1/16 --jobs 2", 1539,
     "e6dafb9186187b7918d98b1e2d32b1e610c5fcfc5555041127a1b9f1ea3002ec"),
    ("edcurve --family c8star --source gamma,search --m 3 --grid 1/16 --jobs 2 --analyze",
     520, "8a6713b2f3136e226bbe6b3bf56cf04fd5866c83f5e13146d31f8abe5f2c7ecf"),
    ("search --forbid c2nstar:8 --max-size 3 --grid 1/16 --jobs 2", 1590,
     "f8b29cf4064b954a8706191b31d20968b4af3deca820165897b4d3bc761e7831"),
    ("gfun --gray 6,6 --p 1/3", 172,
     "dcea746661660669947f343413e76ac25e8ba412c08d4147f444716fe8022f0d"),
    ("embed --graph c2nstar:8 --gray 2,1", 54,
     "a93a18f60f21aabf367a6525187fd91ede188c600baa82f0c9a9196b6a34feb0"),
    ("embed --graph ctilde:9 --gray 1,3", 57,
     "34c557f7aefa76ca655b72217e9c7002833a6702e4e167fd08d72e8f1f267417"),
    ("embed --graph path:7 --gray 0,4", 51,
     "f6259fd358ffc6f288bf69218a0ee10e84072de766833162fac02a38adfa5d48"),
    ("pcore --gray 3,3 --p 2/5", 30,
     "847c35da4938f18291e880a5232f217b0b6d447ea2fc6257de0c574b1569d617"),
    ("estimate --n 8 --p 1/2 --forbid path:4 --samples 100 --seed 3", 52,
     "2bbeaac8c543621ab71bb72ae6a5c3df09386ce07575278bcfe542181ad08771"),
    # a limit small enough that skipped > 0 (3/28,GTPQmk,134): pins how the
    # estimate's checks and exact runs count nodes
    ("estimate --n 8 --p 1/2 --forbid path:4 --samples 200 --seed 3 --node-limit 60", 54,
     "3c716e4bfeaf6b61b458852c39f8b82740e1f38a5a09e28ad98b0ef10cc77e26"),
    ("dist --graph cycle:8 --forbid path:4", 46,
     "ae416850045c2c79b92ca270731306739d7e28fdb3abcff6ae1628e9082e039b"),
    ("dist --graph ctilde:9 --forbid path:4", 47,
     "0d20809d7590b878d41f22802cd492ba7f877d2f5d564501e95cc311154cf295"),
    ("dist --graph c2nstar:10 --forbid path:3", 49,
     "f356cbbe385d7bf94113793a727d3c360dfd0061bf541b71c77c4d6d0cda7aec"),
    # patterns above the 16-vertex cap of the induced-copy search: larger
    # than every host, so no search is built and no output changes
    ("dist --graph path:5 --forbid path:17", 42,
     "dee1066fee2a2dd2ce78add1bbf13860c3960af9ce198afe4590a4a37fe9c525"),
    ("estimate --n 8 --p 1/2 --forbid path:17 --samples 20 --seed 1", 51,
     "13125a8bb22875a18e33b933eb30466e5b8122d2ce15ddea4f917f7bcea5325e"),
]


@pytest.mark.parametrize(
    ("command", "size", "digest"), GOLDEN, ids=[c for c, _, _ in GOLDEN]
)
def test_golden_stdout(tmp_path, capsys, command, size, digest):
    argv = command.format(tmp=tmp_path).split() + ["--no-cache"]
    code, stdout, _ = run_cli(capsys, argv)
    assert code == 0
    data = stdout.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


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

    @pytest.mark.parametrize("order", ["3000000", "9" * 30])
    def test_family_order_capped_before_its_edges_are_built(self, order):
        done = _run_capped(["dist", "--graph", f"path:{order}", "--forbid", "path:3"],
                           400 << 20)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == f"error: vertex count {order} outside 0..4096\n"

    @pytest.mark.parametrize("out", [False, True])
    def test_unwritable_extremes_out_writes_nothing(self, tmp_path, capsys, out):
        argv = ["spectrum", "--graph", "c2nstar:8",
                "--extremes-out", str(tmp_path / "missing" / "e.csv")]
        table = tmp_path / "table.csv"
        code, stdout, err = run_cli(capsys, argv + (["--out", str(table)] if out else []))
        assert (code, stdout) == (6, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not table.exists()


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

    @pytest.mark.parametrize(("family", "n", "grid"), [("ctilde", "16", "1/8"),
                                                       ("cycle", "15", "1/4")])
    def test_gamma_meets_the_closed_form_at_the_pattern_cap(self, capsys, family, n, grid):
        argv = ["edcurve", "--family", family, "--n", n, "--source", "closed_form,gamma",
                "--grid", grid]
        code, stdout, _ = run_cli(capsys, argv)
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "p,value_closed_form,value_gamma,diff"
        assert len(lines) == 2 + int(grid[2:])
        assert all(line.rsplit(",", 1)[1] == "0/1" for line in lines[1:])

    def test_gamma_takes_a_16_vertex_graph(self, capsys):
        code, stdout, _ = run_cli(capsys, ["gamma", "--graph", "cycle:16", "--grid", "1/4"])
        assert code == 0
        assert stdout.splitlines()[2] == '1/4,3/32,gamma,"K(1,5)"'

    @pytest.mark.parametrize(("graph", "message"), [
        ("path:17", "embedding pattern capped at 16 vertices"),
    ])
    def test_spectrum_refused_by_the_caps_of_embeds(self, capsys, graph, message):
        for argv in (["spectrum"], ["gamma", "--p", "1/2"]):
            code, stdout, err = run_cli(capsys, argv + ["--graph", graph])
            assert (code, stdout, err) == (3, "", f"error: {message}\n")

    def test_spectrum_and_gamma_take_the_empty_14_vertex_graph(self, tmp_path, capsys):
        # 14 cliques cover it, so the walk tests K(0, 13)
        graph = ["--graph", "M????????????????"]
        code, stdout, _ = run_cli(capsys, ["spectrum", *graph, "--out", str(tmp_path / "t")])
        assert (code, stdout) == (0, "r,s\n0,13\n")
        code, stdout, _ = run_cli(capsys, ["gamma", *graph, "--p", "1/2"])
        assert (code, stdout) == (0, 'p,value,source,witness\n1/2,1/26,gamma,"K(0,13)"\n')

    def test_cycle3_closed_form_refused_gamma_and_search_still_run(self, capsys):
        argv = ["edcurve", "--family", "cycle", "--n", "3", "--grid", "1/4", "--m", "3"]
        code, stdout, err = run_cli(capsys, argv + ["--source", "closed_form,gamma,search"])
        assert (code, stdout) == (3, "")
        assert err == "error: cycle closed form needs order >= 4, got 3\n"
        code, stdout, _ = run_cli(capsys, argv + ["--source", "gamma,search"])
        assert code == 0
        assert stdout.splitlines()[-2:] == ["3/4,3/8,3/8,0/1", "1/1,1/2,1/2,0/1"]

    def test_edcurve_refuses_out_of_range_grid(self, capsys):
        code, _, err = run_cli(
            capsys, ["edcurve", "--family", "path", "--n", "7", "--grid", "1/4"]
        )
        assert code == 3
        assert "stated on" in err

    def test_edcurve_closed_form_builds_no_graph(self, capsys):
        # the closed form is a formula in n, so an order above the graph
        # cap is evaluated; a graph is built only for gamma and search
        argv = ["edcurve", "--family", "cycle", "--n", "5001", "--grid", "1/4"]
        code, stdout, _ = run_cli(capsys, argv + ["--source", "closed_form"])
        assert code == 0
        grid = [Fraction(k, 4) for k in range(5)]
        assert stdout == cli._curve_csv(closed_form_curve("cycle", 5001, grid), "closed_form")
        code, stdout, err = run_cli(capsys, argv + ["--source", "closed_form,gamma"])
        assert (code, stdout) == (3, "")
        assert err == "error: vertex count 5001 outside 0..4096\n"

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
        # a search row: the file keeps num/den, stdout shows decimals
        code, stdout, _ = run_cli(capsys, SEARCH_ARGV + ["--float", "--out", str(out)])
        assert (code, stdout) == (0, "")
        assert out.read_text().splitlines()[1].startswith(SEARCH_ROW)
        code, stdout, _ = run_cli(capsys, SEARCH_ARGV + ["--float"])
        assert code == 0
        assert stdout.splitlines()[1].startswith("0.3333333333333333,0.16666666666666666,")

    def test_jobs_parallelism_is_deterministic(self, tmp_path, capsys):
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        argv = ["edcurve", "--family", "c8star", "--grid", "1/32"]
        assert main(argv + ["--out", str(seq)]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(par)]) == 0
        capsys.readouterr()
        assert seq.read_bytes() == par.read_bytes()


class TestValuesOnlyWork:
    def test_curve_c8star_job_counts(self, capsys, monkeypatch):
        """The ``curve-c8star`` job (closed_form,gamma,search, m = 4, grid
        1/4, ``--analyze``) in process.  It prints no witness, so only the
        core pass runs; with the growth pass it enumerated twice and made
        3,181 canonical keys and 716 ``embeds`` calls.  Extending each
        parent by every block, not only the twin-sorted ones, made 254
        keys."""
        from heredit import crg

        keys, tested, enumerated = [0], [0], []
        real_key, real_embeds = crg._canonical_key, curves.embeds
        real_enumerate = curves.enumerate_crgs

        def counted_key(rows):
            keys[0] += 1
            return real_key(rows)

        def counted_embeds(*args):
            tested[0] += 1
            return real_embeds(*args)

        def counted_enumerate(*args, **kwargs):
            enumerated.append((args, kwargs.get("roots")))
            return real_enumerate(*args, **kwargs)

        monkeypatch.setattr(crg, "_canonical_key", counted_key)
        monkeypatch.setattr(curves, "embeds", counted_embeds)
        monkeypatch.setattr(curves, "enumerate_crgs", counted_enumerate)
        command = ("edcurve --family c8star --source closed_form,gamma,search"
                   " --m 4 --grid 1/4 --analyze")
        code, stdout, _ = run_cli(capsys, command.split() + ["--no-cache"])
        assert code == 0
        digest = next(d for c, _, d in GOLDEN if c == command)
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest
        assert enumerated == [((4,), None)]
        assert keys[0] == 207
        assert tested[0] == 43


class TestSearchCommand:
    def test_cache_dir_variable_is_ignored(self, tmp_path, capsys, monkeypatch):
        """``search`` recomputes every run: ``HEREDIT_CACHE_DIR`` is not
        read, and nothing is written there."""
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv("HEREDIT_CACHE_DIR", str(cache))
        for _ in range(2):
            code, stdout, err = run_cli(capsys, SEARCH_ARGV)
            assert (code, err) == (0, "")
            assert stdout == (
                "p,value,source,witness\n" + SEARCH_ROW + "WW:G;BBW:GGG;BWW:BBG;BWW:BGG;"
                "BWW:BWG;BWW:WWG;WWW:BBG;WWW:BGG;WWW:BGW;WWW:GGW;WWW:GWW\n"
            )
        assert list(cache.iterdir()) == []

    # --allow-large is accepted for compatibility and changes nothing
    @pytest.mark.parametrize("flags", [["--allow-large"], []], ids=["allow-large", "plain"])
    def test_search_m5_golden_bytes(self, capsys, flags):
        code, stdout, _ = run_cli(
            capsys,
            ["search", "--forbid", "cycle:4", "--max-size", "5", *flags,
             "--p", "45/64", "--no-cache"],
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

    @pytest.mark.parametrize("command", ["embed", "gfun", "pcore"])
    def test_crg_file_above_the_cap_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the input was refused")

        for name in ("crg.embeds", "gfun.g_value", "gfun.is_p_core"):
            monkeypatch.setattr(f"heredit.{name}", forbidden)
        path = tmp_path / "k13.crg"
        path.write_text(crg_to_text(CRG(("W",) * 13, ("G",) * 78)))
        extra = ["--graph", "path:3"] if command == "embed" else ["--p", "1/2"]
        code, stdout, err = run_cli(capsys, [command, "--crg", str(path), *extra])
        assert (code, stdout) == (3, "")
        assert err == f"error: CRG file {path} has 13 vertices; at most {MAX_QP_SIZE} allowed\n"

    def test_pcore_payload_is_is_p_core_and_g(self, tmp_path, capsys):
        from heredit.gfun import g_value, is_p_core

        path = tmp_path / "k.crg"
        verdicts = set()
        for k in enumerate_crgs(3):
            path.write_text(crg_to_text(k))
            for p in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
                code, stdout, _ = run_cli(capsys, ["pcore", "--crg", str(path), "--p", str(p)])
                assert code == 0
                assert json.loads(stdout) == {
                    "p_core": is_p_core(k, p), "g": format_fraction(g_value(k, p).value)
                }, (k, p)
                verdicts.add((k.m, is_p_core(k, p)))
        assert verdicts == {(1, True), (2, True), (2, False), (3, True), (3, False)}

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

    def test_cluster_editing_node_limit_brackets_the_distance(self, capsys):
        """P3 on a 10-vertex host with 27 edges: the default node limit runs
        out after seconds (README, ``dist``); a small limit stops at once,
        every depth below 9 exhausted and 27 deletions always enough."""
        argv = ["dist", "--graph", "IjvndUky?", "--forbid", "path:3", "--node-limit", "20000"]
        code, stdout, err = run_cli(capsys, argv)
        assert (code, stdout) == (5, "")
        assert err == ("error: edit search node limit of 20000 exceeded at depth 9;"
                       " the distance lies in [9, 27]\n")

    def test_estimate_pinned(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            ["estimate", "--n", "6", "--p", "1/2", "--forbid", "path:4",
             "--samples", "50", "--seed", "7"],
        )
        assert code == 0
        assert stdout.splitlines()[1] == "2/15,Eqd_,0"
