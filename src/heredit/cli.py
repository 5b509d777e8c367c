"""Command-line interface: one binary with subcommands and CSV/JSON emission.

``parse_inputs`` validates argv into one ``argparse.Namespace`` per run: each
validated value (a ``Graph``, ``CRG``, ``Fraction``, the evaluation points,
the resolved cache directory) replaces its option's string under the
option's own name, and the handlers read those attributes.  Each handler
builds its artifact as one string and hands it to ``_emit``, the one
writer: the exact artifact goes to ``--out`` or stdout, and ``--float``
shows stdout as decimals.  Files, cached payloads and piped stdout without
``--float`` carry rationals as ``num/den`` strings.

Each subcommand takes only the options that act on it: ``--out`` everywhere,
``--float`` where stdout is a CSV holding rationals, ``--jobs`` where a grid
is evaluated, and ``--cache-dir`` on ``search``, the one command whose
artifact is cached (in ``_run_search``).  ``--no-cache`` is accepted
everywhere for compatibility and acts only on ``search``.  A run that
names its command builds that command's options and no other's
(``_build_parser``); help and usage errors read as on the full tree.

Each command imports only the layers it runs: the module level holds what
``parse_inputs`` needs for every command (errors, graphs, rationals and
the caps in ``limits``), and each handler, each command's branch of
``parse_inputs`` and the result cache import the rest when they run.  So
``estimate`` and ``dist`` never load the CRG solver, and only a cached
``search`` loads ``hashlib``.  A name imported inside a function is read
from its defining module at call time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import BudgetError, FormatError, HereditError, ValidationError
from .graphs import Graph, graph_to_graph6, parse_graph_spec
from .limits import (
    CURVE_FAMILIES,
    DEFAULT_NODE_LIMIT,
    MAX_ANALYZE_POINTS,
    MAX_EMBED_PATTERN,
    MAX_ENUM_SIZE,
    MAX_QP_SIZE,
    SOURCES,
    parse_int,
)
from .rationals import format_fraction, parse_grid, parse_probability

if TYPE_CHECKING:
    from .crg import CRG
    from .curves import Curve


# each subcommand and its one-line help, in the order ``--help`` lists them
_COMMANDS = {
    "spectrum": "clique spectrum membership and extreme points",
    "gamma": "clique-spectrum upper bound at points p",
    "gfun": "solve the simplex program for one CRG",
    "embed": "decide whether a graph embeds in a CRG",
    "pcore": "check whether a CRG is p-core",
    "edcurve": "edit-distance curve for a built-in family",
    "search": "min g over enumerated CRGs avoiding a graph",
    "dist": "exact edit distance of a small graph",
    "estimate": "sampled max edit distance at a density",
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with every subcommand's options or, given
    ``command``, with that subcommand's only.

    Every subcommand is registered either way, so the top-level usage, the
    dispatch and ``invalid choice`` errors do not depend on ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="heredit",
        description="Exact edit-distance functions of hereditary graph "
        "properties via colored regularity graphs.",
    )
    parser.add_argument("--version", action="version", version=f"heredit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            _add_options(p, name)
    return parser


def _common(p: argparse.ArgumentParser, *, floats: bool = False, jobs: bool = False,
            cache: bool = False) -> None:
    p.add_argument("--out", help="write the artifact to this file instead of stdout")
    if floats:
        p.add_argument("--float", action="store_true", dest="float_display",
                       help="render stdout values as decimals (files keep rationals)")
    if jobs:
        p.add_argument("--jobs", type=int,
                       help="worker processes for grid evaluation (default 1; "
                       "at most the CPU count are started)")
    if cache:
        p.add_argument("--cache-dir", help="result cache directory "
                       "(default: $HEREDIT_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache" if cache
                   else "accepted for compatibility; has no effect")
    p.set_defaults(jobs=1, float_display=False)


def _grid_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", help="single rational evaluation point, e.g. 1/3")
    p.add_argument("--grid", help="grid step, e.g. 1/64 for {k/64}")
    p.add_argument("--from", dest="grid_from", help="keep grid points >= this rational")
    p.add_argument("--to", dest="grid_to", help="keep grid points <= this rational")


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    """The options of one subcommand, added to its parser ``p``."""
    if command == "spectrum":
        p.add_argument("--graph", required=True,
                       help="graph6 string or family spec like c2nstar:8")
        p.add_argument("--extremes-out", help="also write the extreme points to this file")
        _common(p)
    elif command == "gamma":
        p.add_argument("--graph", required=True)
        _grid_options(p)
        _common(p, floats=True, jobs=True)
    elif command in ("gfun", "pcore"):
        p.add_argument("--crg", help="path to a 'crg v1' file")
        p.add_argument("--gray", help="all-gray CRG K(r,s) as 'r,s'")
        p.add_argument("--p", required=True)
        _common(p)
    elif command == "embed":
        p.add_argument("--graph", required=True)
        p.add_argument("--crg", help="path to a 'crg v1' file")
        p.add_argument("--gray", help="all-gray CRG K(r,s) as 'r,s'")
        _common(p)
    elif command == "edcurve":
        p.add_argument("--family", required=True, choices=CURVE_FAMILIES)
        p.add_argument("--n", type=int, help="family order (default 8 for c8star)")
        p.add_argument("--source", default="closed_form",
                       help=f"comma list of distinct sources from {','.join(SOURCES)} "
                       "(default closed_form)")
        p.add_argument("--m", type=int, default=3,
                       help=f"CRG size bound for the search source (1..{MAX_ENUM_SIZE})")
        p.add_argument("--allow-large", action="store_true",
                       help="accepted for compatibility; has no effect")
        p.add_argument("--restrict-grid", action="store_true",
                       help="drop grid points outside the closed form's stated interval")
        p.add_argument("--analyze", action="store_true",
                       help="print max/argmax/concavity analysis per source "
                       f"(needs 3 to {MAX_ANALYZE_POINTS} points)")
        _grid_options(p)
        _common(p, floats=True, jobs=True)
    elif command == "search":
        p.add_argument("--forbid", required=True)
        p.add_argument("--max-size", type=int, required=True,
                       help=f"CRG size bound (1..{MAX_ENUM_SIZE})")
        p.add_argument("--allow-large", action="store_true",
                       help="accepted for compatibility; has no effect")
        _grid_options(p)
        _common(p, floats=True, jobs=True, cache=True)
    elif command == "dist":
        p.add_argument("--graph", required=True)
        p.add_argument("--forbid", required=True)
        p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
        _common(p, floats=True)
    else:  # estimate
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--p", required=True)
        p.add_argument("--forbid", required=True)
        p.add_argument("--samples", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
        _common(p, floats=True)


def _load_crg(args) -> CRG:
    """The ``--crg`` or ``--gray`` CRG, of at most ``MAX_QP_SIZE`` vertices;
    a larger K(r, s) is never built."""
    from .crg import crg_from_text, gray_crg

    if bool(args.crg) == bool(args.gray):
        raise ValidationError("provide exactly one of --crg FILE or --gray r,s")
    if args.crg:
        try:
            text = Path(args.crg).read_text()
        except OSError as exc:
            raise ValidationError(f"cannot read CRG file {args.crg}: {exc}") from exc
        k = crg_from_text(text)
        if k.m > MAX_QP_SIZE:
            raise ValidationError(
                f"CRG file {args.crg} has {k.m} vertices; at most {MAX_QP_SIZE} allowed"
            )
        return k
    parts = args.gray.split(",")
    if len(parts) != 2 or not all(part.strip().isdecimal() for part in parts):
        raise ValidationError(f"--gray expects 'r,s' with integers, got {args.gray!r}")
    r, s = parse_int(parts[0].strip(), "--gray r"), parse_int(parts[1].strip(), "--gray s")
    if r + s > MAX_QP_SIZE:
        raise ValidationError(
            f"--gray K({r},{s}) has {r + s} vertices; at most {MAX_QP_SIZE} allowed"
        )
    return gray_crg(r, s)


def _points_from(args) -> tuple[Fraction, ...]:
    if bool(args.p) == bool(args.grid):
        raise ValidationError("provide exactly one of --p or --grid")
    if args.p:
        point = parse_probability(args.p)
        if args.grid_from or args.grid_to:
            raise ValidationError("--from and --to apply only to --grid, not to --p")
        return (point,)
    lo = parse_probability(args.grid_from) if args.grid_from else Fraction(0)
    hi = parse_probability(args.grid_to) if args.grid_to else Fraction(1)
    points = parse_grid(args.grid, lo, hi)
    if not points:
        raise ValidationError("grid restriction left no evaluation points")
    return points


def _search_size(m: int, flag: str) -> None:
    if not 1 <= m <= MAX_ENUM_SIZE:
        raise ValidationError(f"{flag} must lie in 1..{MAX_ENUM_SIZE}, got {m}")


def _search_pattern(h: Graph) -> None:
    """Refuse at parse time the forbidden graph that ``embeds`` would refuse
    on the search's first class."""
    if h.n > MAX_EMBED_PATTERN:
        raise ValidationError(f"embedding pattern capped at {MAX_EMBED_PATTERN} vertices")


def parse_inputs(argv: list[str]) -> argparse.Namespace:
    """Parse and validate argv before any computation runs.

    Each option a command has is validated under its own name, in the
    order below (the first failure is the one reported).
    """
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    job = _build_parser(command).parse_args(argv)
    if job.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {job.jobs}")
    if hasattr(job, "graph"):
        job.graph = parse_graph_spec(job.graph)
    if hasattr(job, "crg"):
        job.crg = _load_crg(job)
    if hasattr(job, "p") and not hasattr(job, "grid"):
        job.p = parse_probability(job.p)
    if hasattr(job, "forbid"):
        job.forbid = parse_graph_spec(job.forbid)

    if job.command == "gamma":
        job.points = _points_from(job)
    elif job.command == "edcurve":
        from .curves import closed_form_terms, family_graph, valid_interval

        n = job.n if job.n is not None else (8 if job.family == "c8star" else None)
        if n is None:
            raise ValidationError(f"--n is required for family {job.family}")
        sources = tuple(s.strip() for s in job.source.split(",") if s.strip())
        unknown = [s for s in sources if s not in SOURCES]
        if unknown or not sources:
            raise ValidationError(f"unknown curve source(s): {', '.join(unknown) or '(none)'}")
        repeated = sorted({s for s in sources if sources.count(s) > 1})
        if repeated:
            raise ValidationError(f"repeated curve source(s): {', '.join(repeated)}")
        if job.p is None and job.grid is None:
            job.grid = "1/128"
        points = _points_from(job)
        if job.restrict_grid:
            lo, hi = valid_interval(job.family, n)
            points = tuple(p for p in points if lo <= p <= hi)
            if not points:
                raise ValidationError("grid restriction left no evaluation points")
        if job.analyze and not 3 <= len(points) <= MAX_ANALYZE_POINTS:
            bound = "at least 3" if len(points) < 3 else f"at most {MAX_ANALYZE_POINTS}"
            raise ValidationError(f"--analyze needs {bound} evaluation points, got {len(points)}")
        # the closed form needs no graph, so an order above the graph cap is fine
        graph = family_graph(job.family, n) if {"gamma", "search"} & set(sources) else None
        if "closed_form" in sources and not job.restrict_grid:
            closed_form_terms(job.family, n, points)
        if "search" in sources:
            _search_size(job.m, "--m")
            _search_pattern(graph)
        job.n, job.sources, job.points, job.graph = n, sources, points, graph
    elif job.command == "search":
        _search_size(job.max_size, "--max-size")
        job.points = _points_from(job)
        cache_dir = job.cache_dir or os.environ.get("HEREDIT_CACHE_DIR")
        job.cache_dir = Path(cache_dir) if cache_dir and not job.no_cache else None
        _search_pattern(job.forbid)
    return job


# ---------------------------------------------------------------------------
# artifacts and their one writer
# ---------------------------------------------------------------------------


def _csv_cell(text: str) -> str:
    # RFC 4180 quoting so witness labels like K(2,0) stay one cell
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(header: list[str], rows) -> str:
    """The CSV artifact; a ``Fraction`` cell is written ``num/den``."""
    lines = [header]
    lines += [[format_fraction(c) if isinstance(c, Fraction) else str(c) for c in row]
              for row in rows]
    return "".join(",".join(_csv_cell(cell) for cell in line) + "\n" for line in lines)


_RATIONAL_CELL = re.compile(r"-?\d+/\d+")


def _decimal_view(artifact: str) -> str:
    """``artifact`` with each cell that is exactly ``num/den`` shown as its float."""
    import csv  # only --float reads a CSV back

    return "".join(
        ",".join(
            _csv_cell(repr(float(Fraction(cell))) if _RATIONAL_CELL.fullmatch(cell) else cell)
            for cell in row
        ) + "\n"
        for row in csv.reader(artifact.splitlines())
    )


def _emit(job: argparse.Namespace, artifact: str) -> None:
    """Write the exact artifact to ``--out``, or to stdout (as decimals with ``--float``)."""
    if job.out:
        Path(job.out).write_text(artifact)
    else:
        sys.stdout.write(_decimal_view(artifact) if job.float_display else artifact)


# ---------------------------------------------------------------------------
# curve evaluation (--jobs chunks merge in order)
# ---------------------------------------------------------------------------


def _evaluate_curve(job: argparse.Namespace, curve_of, points: tuple[Fraction, ...]) -> Curve:
    """``curve_of(points)``, or with ``--jobs`` its ordered chunks concatenated.

    ``curve_of`` is a ``functools.partial`` of a module-level library curve
    function that still takes the grid, so it pickles into the workers.  At
    most one worker per CPU is started: the pool forks all of them at once.
    """
    workers = min(job.jobs, os.cpu_count() or 1)
    if workers <= 1 or len(points) < 2 * workers:
        return curve_of(points)
    from concurrent.futures import ProcessPoolExecutor  # a serial run never imports it

    from .curves import Curve

    chunk = -(-len(points) // workers)
    chunks = [points[i : i + chunk] for i in range(0, len(points), chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(curve_of, chunks))
    return Curve(
        tuple(sample for part in parts for sample in part.samples),
        parts[0].source,
        tuple(wits for part in parts for wits in part.witnesses),
    )


def _curve_csv(curve: Curve, source: str) -> str:
    rows = [
        [p, value, source, ";".join(wits)]
        for (p, value), wits in zip(curve.samples, curve.witnesses)
    ]
    return _csv_text(["p", "value", "source", "witness"], rows)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _run_spectrum(job: argparse.Namespace) -> int:
    """The membership table over 0 <= r, s <= |V(H)|, which holds every
    member; ``--extremes-out`` is written first, so an unwritable one
    leaves no table behind."""
    from .spectrum import clique_spectrum

    spect = clique_spectrum(job.graph)
    extremes_text = _csv_text(["r", "s"], spect.extreme_points())
    if job.extremes_out:
        Path(job.extremes_out).write_text(extremes_text)
    order = range(job.graph.n + 1)
    rows = [[r, s, int((r, s) in spect.members)] for r in order for s in order if r + s >= 1]
    _emit(job, _csv_text(["r", "s", "member"], rows))
    if job.out or job.extremes_out:
        sys.stdout.write(extremes_text)
    return 0


def _run_gamma(job: argparse.Namespace) -> int:
    from .curves import gamma_curve
    from .spectrum import clique_spectrum

    curve_of = partial(gamma_curve, job.graph, spectrum=clique_spectrum(job.graph))
    _emit(job, _curve_csv(_evaluate_curve(job, curve_of, job.points), "gamma"))
    return 0


def _run_gfun(job: argparse.Namespace) -> int:
    from .gfun import g_value

    _emit(job, json.dumps(g_value(job.crg, job.p).as_json_dict()) + "\n")
    return 0


def _run_embed(job: argparse.Namespace) -> int:
    from .crg import embeds

    found, witness = embeds(job.graph, job.crg)
    payload = {
        "embeds": found,
        "witness": list(witness.mapping) if witness else None,
    }
    _emit(job, json.dumps(payload) + "\n")
    return 0


def _run_pcore(job: argparse.Namespace) -> int:
    """One solve: K is a p-core exactly when ``g_value``'s minimal-support
    witness uses every vertex (``gfun.is_p_core``)."""
    from .gfun import g_value

    res = g_value(job.crg, job.p)
    payload = {"p_core": len(res.support) == job.crg.m, "g": format_fraction(res.value)}
    _emit(job, json.dumps(payload) + "\n")
    return 0


def _run_edcurve(job: argparse.Namespace) -> int:
    from .curves import closed_form_curve, core_curve, curve_scan, gamma_curve, search_curve
    from .spectrum import clique_spectrum

    sources = job.sources
    curves: dict[str, Curve] = {}
    for source in sources:
        if source == "closed_form":
            curve_of = partial(closed_form_curve, job.family, job.n)
        elif source == "gamma":
            curve_of = partial(gamma_curve, job.graph, spectrum=clique_spectrum(job.graph))
        elif len(sources) == 1:
            curve_of = partial(search_curve, job.graph, job.m)
        else:  # only the values are printed, so the growth pass is skipped
            curve_of = partial(core_curve, job.graph, job.m)
        curves[source] = _evaluate_curve(job, curve_of, job.points)

    if len(sources) == 1:
        _emit(job, _curve_csv(curves[sources[0]], sources[0]))
    else:
        header = ["p"] + [f"value_{s}" for s in sources] + ["diff"]
        rows = []
        for idx, p in enumerate(job.points):
            values = [curves[s].samples[idx][1] for s in sources]
            rows.append([p, *values, max(values) - min(values)])
        _emit(job, _csv_text(header, rows))

    if job.analyze:
        for source in sources:
            analysis = curve_scan(curves[source])
            print(
                f"analysis {source}: d_star={format_fraction(analysis.d_star)}"
                f" ({float(analysis.d_star):.6f})"
                f" p_star={format_fraction(analysis.p_star)}"
                f" ({float(analysis.p_star):.6f})"
                f" concavity_violations={len(analysis.concavity_violations)}"
            )
    return 0


def _cache_entry(directory: Path, inputs: dict) -> Path:
    """The cache file of a job: the SHA-256 of its inputs' canonical JSON.

    The inputs hold the package version, so an upgrade misses cleanly.
    """
    import hashlib  # loads OpenSSL, so only a cached search pays for it

    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return directory / f"{hashlib.sha256(canonical.encode()).hexdigest()}.json"


def _cache_read(entry: Path) -> str | None:
    """The artifact stored in ``entry``, or None when it is missing or is not
    a JSON object holding a string ``payload``; such an entry is recomputed."""
    try:
        stored = json.loads(entry.read_text())
    except (OSError, ValueError):
        return None
    payload = stored.get("payload") if isinstance(stored, dict) else None
    return payload if isinstance(payload, str) else None


def _cache_write(entry: Path, payload: str) -> None:
    """Store ``payload`` as ``{"key", "payload"}`` in ``entry``.

    The atomic rename keeps concurrent same-key writers safe.  When the
    directory is unwritable this prints one warning line on stderr and
    removes its temp file, and the run goes on without the cache.
    """
    import tempfile

    tmp = None
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump({"key": entry.stem, "payload": payload}, handle)
        os.replace(tmp, entry)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        print(f"warning: cache directory {entry.parent} not writable ({exc}); "
              "continuing without cache", file=sys.stderr)


def _run_search(job: argparse.Namespace) -> int:
    from .curves import search_curve

    h, m = job.forbid, job.max_size
    entry = None
    if job.cache_dir is not None:
        entry = _cache_entry(job.cache_dir, {
            "command": "search", "version": __version__,
            "forbid": graph_to_graph6(h), "m": m,
            "points": [format_fraction(p) for p in job.points],
        })
        cached = _cache_read(entry)
        if cached is not None:
            _emit(job, cached)
            return 0
    curve = _evaluate_curve(job, partial(search_curve, h, m), job.points)
    artifact = _curve_csv(curve, f"search-m{m}")
    _emit(job, artifact)
    if entry is not None:
        _cache_write(entry, artifact)
    return 0


def _run_dist(job: argparse.Namespace) -> int:
    from .editing import edit_distance

    result = edit_distance(job.graph, job.forbid, node_limit=job.node_limit)
    rows = [[result.edits, result.normalized, graph_to_graph6(result.witness)]]
    _emit(job, _csv_text(["edits", "normalized", "witness_graph6"], rows))
    return 0


def _run_estimate(job: argparse.Namespace) -> int:
    from .editing import max_dist_estimate

    result = max_dist_estimate(
        job.n, job.p, job.forbid, job.samples, job.seed, node_limit=job.node_limit
    )
    rows = [[result.max_normalized, graph_to_graph6(result.witness), result.skipped]]
    _emit(job, _csv_text(["max_normalized", "witness_graph6", "skipped"], rows))
    return 0


_HANDLERS = {
    "spectrum": _run_spectrum,
    "gamma": _run_gamma,
    "gfun": _run_gfun,
    "embed": _run_embed,
    "pcore": _run_pcore,
    "edcurve": _run_edcurve,
    "search": _run_search,
    "dist": _run_dist,
    "estimate": _run_estimate,
}


def run(job: argparse.Namespace) -> int:
    """Dispatch a validated job to its command handler."""
    return _HANDLERS[job.command](job)


def main(argv: list[str] | None = None) -> int:
    """Entry point.

    Exit codes: 0 success, 1 internal error, 2 usage, 3 validation,
    4 format, 5 budget, 6 operating-system error (e.g. an unwritable --out).
    """
    try:
        job = parse_inputs(sys.argv[1:] if argv is None else argv)
        return run(job)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except HereditError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
