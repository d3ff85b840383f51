"""Command-line front end: construct, verify, inspect, and slice HDM files.

Exit codes are a stable contract: 0 = success / all checks pass,
1 = a requested property check failed, 2 = usage or parse error,
3 = a construction hypothesis was violated (input not Hadamard).

Diagnostics go to stderr; file payloads and tables go to --out or stdout.
Coordinates on the command line are 1-based (matching the i_1..i_n file
layout); index values within a coordinate are 0-based, as in the library.
verify prints failing axis/value details 1-based.
"""

import argparse
import sys

from .constructions import almost_cube, dim_lift, paley2, paley3, yang_product
from .errors import (
    HdmError,
    NotHadamardInput,
    NotOddPrimePower,
    ParseError,
)
from .gf import Field
from .ncube import SignCube, is_hadamard, is_proper, layer, read, write
from .symmetry import _check_shape, check_cyclic, check_psl_invariance


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _write_cube(cube: SignCube, out: str | None) -> None:
    if out:
        with open(out, "wb") as f:
            write(cube, f)
    else:
        sys.stdout.flush()  # anything printed before goes first
        write(cube, sys.stdout.buffer)
        sys.stdout.buffer.flush()


def _read_cube(path: str) -> SignCube:
    with open(path, "rb") as f:
        return read(f)


# -- subcommands ----------------------------------------------------------------

def cmd_construct(args) -> int:
    kind = args.kind
    reads = {"paley2": ("q", "v"), "paley3": ("q", "v"), "almost-cube": ("q", "v", "dim"),
             "product": ("input", "dim"), "lift": ("input",)}[kind]
    for opt in ("q", "v", "input", "dim"):
        if getattr(args, opt) is not None and opt not in reads:
            return _fail(f"--kind {kind} does not read --{opt}")
    if kind in ("paley2", "paley3", "almost-cube"):
        if (args.q is None) == (args.v is None):
            return _fail("give exactly one of --q / --v")
        F = Field(args.q if args.q is not None else args.v - 1)
        if kind == "paley2":
            cube = paley2(F)
        elif kind == "paley3":
            cube = paley3(F)
        else:
            cube = almost_cube(F, args.dim if args.dim is not None else 3)
    else:
        if args.input is None:
            return _fail(f"--kind {kind} requires --input")
        if kind == "product" and args.dim is None:
            return _fail("--kind product requires --dim")
        base = _read_cube(args.input)
        cube = yang_product(base, args.dim) if kind == "product" else dim_lift(base)
    _write_cube(cube, args.out)
    print(f"{kind} n={cube.n} v={cube.v}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    # usage and field errors come before the file is read and checked
    if args.psl and args.q is None:
        return _fail("--psl requires --q to bind the field")
    if args.q is not None and not args.psl:
        return _fail("verify does not read --q without --psl")
    F = Field(args.q) if args.psl else None
    cube = _read_cube(args.path)
    if args.cyclic or args.psl:  # a shape they cannot check, before any verifier runs
        _check_shape(cube, F)
    results = []

    rep = is_hadamard(cube)
    results.append(("hadamard", rep.passed, rep))
    if args.proper:
        # a 2-D cube is its own only layer, scanned as is_hadamard scans it
        rep = is_proper(cube) if cube.n > 2 else rep
        results.append(("proper", rep.passed, rep))
    if args.cyclic:
        results.append(("cyclic", check_cyclic(cube), None))
    if args.psl:
        results.append(("psl", check_psl_invariance(cube, F), None))

    for name, ok, rep in results:
        if ok:
            print(f"{name}: PASS")
        elif rep is not None:
            print(f"{name}: FAIL axis={rep.axis + 1} a={rep.pair[0] + 1} "
                  f"b={rep.pair[1] + 1} dev={rep.deviation}")
        else:
            print(f"{name}: FAIL")
    return 0 if all(ok for _, ok, _ in results) else 1


def cmd_info(args) -> int:
    cube = _read_cube(args.path)
    print(f"n={cube.n} v={cube.v} entries={cube.v ** cube.n}")
    return 0


def cmd_layer(args) -> int:
    cube = _read_cube(args.path)
    fixed: dict[int, int] = {}
    for spec in args.fix:
        coord, _, value = spec.partition("=")
        try:
            if not all(f.isascii() and f.isdigit() for f in (coord, value)):
                raise ValueError
            pos, val = int(coord), int(value)
        except ValueError:  # not decimal, or more digits than int() converts
            return _fail(f"bad --fix {spec!r}; expected <coordinate>=<value>")
        if not 1 <= pos <= cube.n:
            return _fail(f"coordinate {pos} outside 1..{cube.n}")
        if pos - 1 in fixed:
            return _fail(f"coordinate {pos} fixed twice")
        fixed[pos - 1] = val
    _write_cube(layer(cube, fixed), args.out)
    return 0


def cmd_chi_table(args) -> int:
    F = Field(args.q)
    for a in range(1, F.q):
        elem = str(a) if F.k == 1 else ",".join(str(c) for c in F.coeffs(a))
        print(f"{a} {elem} {F.chi(a):+d}")
    return 0


# -- argument grammar --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hdm",
        description="Construct and verify higher-dimensional Hadamard matrices "
                    "in the HDM text format.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a matrix and write it as HDM")
    c.add_argument("--kind", required=True,
                   choices=["paley2", "paley3", "product", "lift", "almost-cube"])
    c.add_argument("--q", type=int, help="field order (odd prime power)")
    c.add_argument("--v", type=int, help="matrix order; shorthand for q = v - 1")
    c.add_argument("--input", help="input HDM file (product, lift)")
    c.add_argument("--dim", type=int,
                   help="output dimension (product; almost-cube, default 3)")
    c.add_argument("--out", help="output path (default: stdout)")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="check orthogonality properties of an HDM file")
    v.add_argument("path")
    v.add_argument("--proper", action="store_true",
                   help="also require every 2-D layer to be Hadamard")
    v.add_argument("--cyclic", action="store_true",
                   help="also check invariance under cyclic coordinate shifts")
    v.add_argument("--psl", action="store_true",
                   help="also check invariance under the determinant-1 Moebius group")
    v.add_argument("--q", type=int, help="field order binding --psl")
    v.set_defaults(func=cmd_verify)

    i = sub.add_parser("info", help="print the shape of an HDM file")
    i.add_argument("path")
    i.set_defaults(func=cmd_info)

    l = sub.add_parser("layer", help="extract a layer by fixing coordinates")
    l.add_argument("path")
    l.add_argument("--fix", action="append", required=True, metavar="COORD=VALUE",
                   help="fix a 1-based coordinate to a 0-based index value; repeatable")
    l.add_argument("--out", help="output path (default: stdout)")
    l.set_defaults(func=cmd_layer)

    t = sub.add_parser("chi-table", help="print idx/elem/chi rows for the field units")
    t.add_argument("--q", type=int, required=True)
    t.set_defaults(func=cmd_chi_table)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NotOddPrimePower as exc:
        return _fail(f"order not covered: {exc}")
    except ParseError as exc:
        return _fail(f"parse error: {exc}")
    except NotHadamardInput as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except HdmError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
