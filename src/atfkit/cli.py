"""Command-line interface.

Subcommands: ``build`` (construct the initial base diagram), ``verify``
(run the property battery), ``orbit`` (classify one level's orbit),
``classify`` (applicability screen for a polygon), ``mcg`` (twist-class
enumeration with areas), and ``render`` (deterministic SVG).

Exit codes: 0 on success, 1 when a verification produces a counterexample,
2 for malformed flags, files, or out-of-range inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .classify import check_applicable
from .diagram import BaseDiagram, build_pi0
from .homology import find_twist_classes, omega_eval
from .orbits import _positions, classify_level, equidistribution_stats
from .polygon import ConstructionParams, Polygon, catalog, catalog_names, check_shape
from .recurrence import VerificationError, build_recurrence_map
from .render import RenderStyle, render_svg
from .scalars import _check_digits, _digits, _text, parse_scalar
from .verify import run_all

# the largest --n and --bins that ``orbit`` accepts: it walks up to that
# many positions and builds up to that many counters or dumped positions
ORBIT_LIMIT = 1_000_000


def _scalar(text: str):
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_params(parser: argparse.ArgumentParser, with_eps: bool = True) -> None:
    parser.add_argument("--a", type=_scalar, default=parse_scalar("4"), help="long side (default 4)")
    parser.add_argument("--b", type=_scalar, default=parse_scalar("2"), help="short side (default 2)")
    parser.add_argument("--c", type=_scalar, default=parse_scalar("1/2"), help="chop depth (default 1/2)")
    if with_eps:
        parser.add_argument(
            "--eps", type=_scalar, default=parse_scalar("1/8"), help="taper half-width (default 1/8)"
        )


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


def _cmd_build(args: argparse.Namespace) -> int:
    params = ConstructionParams(args.a, args.b, args.c, args.eps)
    text = build_pi0(params).to_json()
    # nothing is written that render could not read back
    _check_digits(text)
    _write_output(text, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    return run_all(seed=args.seed)


def _cmd_orbit(args: argparse.Namespace) -> int:
    for flag, value in (("--n", args.n), ("--bins", args.bins)):
        if value is not None and value > ORBIT_LIMIT:
            raise ValueError(f"{flag} {value} is above the limit {ORBIT_LIMIT}")
    params = ConstructionParams(args.a, args.b, args.c, args.eps)
    report = classify_level(params, args.h, n_checked=args.n).to_json_obj()
    # the report is flat, so each key is one line as json.dumps(indent=2)
    # writes it; an int goes through _digits, which prints any length
    text = "{\n" + ",\n".join(
        f'  "{key}": {_digits(v) if type(v) is int else json.dumps(v)}' for key, v in report.items()
    ) + "\n}"
    if args.bins is not None:
        # the counts go through json's C encoder, one a line as indent=2
        # would write them, spliced in as the report's last key
        counts = json.dumps(
            equidistribution_stats(params, args.h, args.n, args.bins), separators=(",\n    ", ": ")
        )
        text = f'{text[:-2]},\n  "histogram": [\n    {counts[1:-1]}\n  ]\n}}'
    print(text)
    if args.dump is not None:
        # the rows are written as the walk yields them, so the dump's memory
        # does not grow with --n, and each is formatted from its integers with
        # no QField; the text is that of json.dumps (a scalar's text needs no
        # escapes) or of the CSV lines joined, "n,s\n\n" for none
        positions, as_json = enumerate(_positions(params, args.h, args.n, form=_text)), args.dump_format == "json"
        with open(args.dump, "w") as out:
            out.write("[" if as_json else "n,s\n" if args.n else "n,s\n\n")
            out.writelines(f'{", " if i else ""}"{s}"' if as_json else f"{i},{s}\n" for i, s in positions)
            out.write("]" if as_json else "")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    if (args.polygon is None) == (args.name is None):
        print("error: pass exactly one of POLYGON or --name", file=sys.stderr)
        return 2
    if args.name is not None:
        poly = catalog(args.name)
    else:
        poly = Polygon.from_json(Path(args.polygon).read_text())
    report = check_applicable(poly)
    print(json.dumps(report.to_json_obj(), indent=2))
    return 0


def _cmd_mcg(args: argparse.Namespace) -> int:
    check_shape(args.a, args.b, args.c)
    classes = find_twist_classes(args.bound)
    obj = {
        "bound": args.bound,
        "classes": [
            {
                "class": list(x.as_tuple()),
                "area": str(omega_eval(x, args.a, args.b, args.c)),
            }
            for x in classes
        ],
    }
    print(json.dumps(obj, indent=2))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    diagram = BaseDiagram.from_json(Path(args.diagram).read_text())
    levels = tuple(parse_scalar(h) for h in args.levels.split(",")) if args.levels else ()
    strips = ()
    if args.strips:
        rm = build_recurrence_map(diagram, verify=False)
        strips = rm.rounds
    style = RenderStyle(
        scale=args.scale,
        show_levels=levels,
        show_cuts=not args.no_cuts,
        show_nodes=not args.no_nodes,
        show_eigenlines=args.eigenlines,
        strips=strips,
    )
    _write_output(render_svg(diagram, style), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; callers must not change it.

    Parsing leaves it unchanged, and argparse builds its help formatter
    only when it formats, so help and usage still wrap at the current
    ``COLUMNS``.  ``build_parser.__wrapped__()`` builds a fresh one.
    """
    parser = argparse.ArgumentParser(
        prog="atfkit",
        description="exact moment-polygon, base-diagram, and recurrence-orbit toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build the initial base diagram as JSON")
    _add_params(p_build)
    p_build.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="run the built-in property battery")
    p_verify.add_argument("--seed", type=int, default=2026)
    p_verify.set_defaults(func=_cmd_verify)

    p_orbit = sub.add_parser("orbit", help="classify the orbit on one level")
    _add_params(p_orbit)
    p_orbit.add_argument("--h", type=_scalar, required=True, help="level, e.g. 1/4 or 0/1+1/8*sqrt(2)")
    p_orbit.add_argument(
        "--n", type=int, default=10_000,
        help=f"iterates to check (default 10000, at most {ORBIT_LIMIT})",
    )
    p_orbit.add_argument(
        "--bins", type=int,
        help=f"also print an equidistribution histogram (at most {ORBIT_LIMIT} bins)",
    )
    p_orbit.add_argument("--dump", help="write the first n arc positions to this file")
    p_orbit.add_argument("--dump-format", choices=("csv", "json"), default="csv")
    p_orbit.set_defaults(func=_cmd_orbit)

    p_classify = sub.add_parser("classify", help="applicability screen for a polygon")
    p_classify.add_argument("polygon", nargs="?", help="path to a polygon JSON file")
    p_classify.add_argument(
        "--name", help="catalog polygon instead of a file: " + ", ".join(catalog_names())
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_mcg = sub.add_parser("mcg", help="enumerate twist classes with symplectic areas")
    _add_params(p_mcg, with_eps=False)
    p_mcg.add_argument("--bound", type=int, default=50, help="coefficient bound (default 50)")
    p_mcg.set_defaults(func=_cmd_mcg)

    p_render = sub.add_parser("render", help="render a diagram JSON to SVG")
    p_render.add_argument("diagram", help="path to a diagram JSON file")
    p_render.add_argument("--levels", help="comma-separated level values to draw")
    p_render.add_argument("--scale", type=_scalar, default=parse_scalar("40"))
    p_render.add_argument("--no-cuts", action="store_true")
    p_render.add_argument("--no-nodes", action="store_true")
    p_render.add_argument("--eigenlines", action="store_true")
    p_render.add_argument("--strips", action="store_true", help="shade the four shear strips")
    p_render.add_argument("-o", "--output", help="write SVG here instead of stdout")
    p_render.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
