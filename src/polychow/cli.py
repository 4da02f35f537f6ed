"""Command-line front end.

All quantities are lattice-normalized pure rationals; there are no units
anywhere. Results are printed to stdout as deterministic text (or JSON
with --json); wall-clock timing goes to stderr so identical inputs always
produce byte-identical reports.

Exit codes: 0 success, 1 input or validation error, 2 mathematical
verification mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import PolychowError, VerificationMismatch
from .geometry import (
    AffineMap,
    IntMat2,
    Polygon,
    Vec2,
    area,
    boundary_lattice_length,
    denominator_lcm,
    is_delzant,
    is_lattice,
    moment_integral,
)
from .counting import _charge_dilations, ehrhart_eval, ehrhart_poly, sum_points, sum_poly
from .chow import (
    chow_poly,
    chow_eval,
    check_scaling_law,
    check_translation_law,
    check_unimodular_law,
    coefficient_span_dim,
)
from .blowup import chop_corners, df_invariants, chow_after_blowup, verify_blowup_theorem
from .stability import (
    SymmetryGroup,
    fo_invariant,
    is_centrally_symmetric,
    is_weakly_symmetric,
    mukai_classify,
)
from .serialization import (
    file_digest,
    load_cuts,
    load_group,
    load_points,
    load_polytope,
    render_report,
)


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors: one `error:` line and exit 1, not
    argparse's usage dump and exit 2, which means a verification mismatch
    here. Subcommand parsers are built from the same class."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polytope-chow",
        description=(
            "Exact invariants of convex lattice polygons: lattice point counts, "
            "point-sum and Chow-weight polynomials, corner-chop blow-up "
            "invariants, symmetry and stability tests. All numbers are exact "
            "rationals printed as p/q; nothing carries units."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, run, needs_file: bool = True,
            poly: str | None = None) -> argparse.ArgumentParser:
        """A subcommand whose handler is `args.run`; a `poly` name adds the
        --i/--poly pair shared by the dilation commands."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if needs_file:
            p.add_argument("file", help="polytope JSON file: {\"vertices\": [[\"0\",\"0\"], ...]}")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        if poly:
            p.add_argument("--i", type=int, default=1, metavar="N",
                           help="dilation factor (default 1)")
            p.add_argument("--poly", action="store_true",
                           help=f"emit the {poly} polynomial instead")
        return p

    add("info", "areas, lattice data and Delzant status of a polygon", _cmd_info)
    add("ehrhart", "lattice point count at a dilation, or the counting polynomial", _cmd_ehrhart,
        poly="counting")
    add("sum", "lattice point sum at a dilation, or the sum polynomial", _cmd_sum, poly="sum")

    p = add("chow", "Chow weight at a dilation, or its polynomial and coefficient span", _cmd_chow,
            poly="Chow")
    p.add_argument(
        "--laws",
        type=int,
        default=0,
        metavar="N",
        help="also check the translation/unimodular/scaling laws for i=1..N",
    )

    p = add("blowup", "corner-chop decomposition, blow-up invariants and Chow weight", _cmd_blowup)
    p.add_argument("--cuts", required=True, metavar="FILE",
                   help="cuts JSON file: {\"cuts\": [{\"vertex\": [\"0\",\"2\"], \"depth\": \"1/2\"}]}")
    p.add_argument("--verify", action="store_true",
                   help="check the blow-up identity against direct enumeration")
    p.add_argument("--imax", type=int, default=3, metavar="N",
                   help="largest dilation for --verify (default 3)")

    p = add("fo", "averaged-point invariant and symmetry findings", _cmd_fo)
    p.add_argument("--i", type=int, default=1, metavar="N", help="largest dilation (default 1)")
    p.add_argument("--group", metavar="FILE",
                   help="symmetry generators JSON file: {\"generators\": [[[0,-1],[1,-1]]]}")

    add("mukai", "incidence stability test for plane point configurations", _cmd_mukai)
    add("replicate", "run the embedded replication suite", _cmd_replicate, needs_file=False)
    return parser


def _polygon_report(polygon: Polygon) -> dict:
    vol = area(polygon)
    moment = moment_integral(polygon)
    return {
        "vertices": polygon.vertices,
        "area": vol,
        "boundary_lattice_length": boundary_lattice_length(polygon),
        "is_lattice": is_lattice(polygon),
        "is_delzant": is_delzant(polygon),
        "denominator_lcm": denominator_lcm(polygon),
        "moment_integral": moment,
        "barycenter": Vec2(moment.x / vol, moment.y / vol),
    }


def _cmd_info(args) -> tuple[dict, int]:
    polygon = load_polytope(args.file)
    return {"polytope": _polygon_report(polygon)}, 0


def _cmd_ehrhart(args) -> tuple[dict, int]:
    polygon = load_polytope(args.file)
    if args.poly:
        return {"ehrhart_poly": ehrhart_poly(polygon)}, 0
    return {"i": args.i, "count": ehrhart_eval(polygon, args.i)}, 0


def _cmd_sum(args) -> tuple[dict, int]:
    polygon = load_polytope(args.file)
    if args.poly:
        return {"sum_poly": sum_poly(polygon)}, 0
    return {"i": args.i, "sum": sum_points(polygon, args.i)}, 0


def _cmd_chow(args) -> tuple[dict, int]:
    if args.laws < 0:
        raise ValueError("--laws must be a nonnegative integer")
    polygon = load_polytope(args.file)
    report: dict = {}
    if args.poly:
        poly = chow_poly(polygon)
        report["chow_poly"] = {"linear": poly.c1, "const": poly.c0}
        report["coefficient_span_dim"] = coefficient_span_dim(poly)
    else:
        report["i"] = args.i
        report["chow"] = chow_eval(polygon, AffineMap.identity(), args.i)
    if args.laws > 0:
        # six Chow weights per i, the scaling law's two at dilation 2i
        _charge_dilations(polygon, 6 * args.laws, 2 * args.laws, f"--laws {args.laws}")
        entries = []
        shift = Vec2.of(1, 1)
        shear = IntMat2.from_rows((1, 1), (0, 1))
        for i in range(1, args.laws + 1):
            for check in (
                check_translation_law(polygon, shift, i),
                check_unimodular_law(polygon, shear, i),
                check_scaling_law(polygon, 2, i),
            ):
                entries.append(
                    {
                        "law": check.law,
                        "i": i,
                        "holds": check.holds,
                        "lhs": check.lhs,
                        "rhs": check.rhs,
                    }
                )
        report["laws"] = entries
    return report, 0


def _cmd_blowup(args) -> tuple[dict, int]:
    polygon = load_polytope(args.file)
    cuts = load_cuts(args.cuts)
    decomposition = chop_corners(polygon, cuts)
    if args.verify:
        _charge_dilations(
            decomposition.scaled_chopped(), args.imax, args.imax, f"--imax {args.imax}"
        )
    df1, df2 = df_invariants(decomposition)
    after = chow_after_blowup(decomposition)
    report = {
        "k": decomposition.k,
        "m": decomposition.m,
        "M": decomposition.m_sum,
        "M_tilde": decomposition.m_square_sum,
        "A": decomposition.a_const,
        "B": decomposition.b_const,
        "frames": decomposition.frames,
        "chopped_vertices": decomposition.chopped.vertices,
        "chopped_scaled_delzant": decomposition.chopped_scaled_delzant,
        "DF1": df1,
        "DF2": df2,
        "chow_poly": {"linear": after.c1, "const": after.c0},
        "coefficient_span_dim": coefficient_span_dim(after),
    }
    if not decomposition.chopped_scaled_delzant:
        print(
            "warning: the scaled chopped polygon is lattice but not Delzant; "
            "invariants still evaluate",
            file=sys.stderr,
        )
    exit_code = 0
    if args.verify:
        try:
            verification = verify_blowup_theorem(decomposition, args.imax)
            entries = verification.entries
        except VerificationMismatch as exc:
            entries = exc.report.entries if exc.report is not None else ()
            exit_code = 2
        report["verification"] = [
            {"i": i, "identity": lhs, "enumerated": rhs, "equal": lhs == rhs}
            for i, lhs, rhs in entries
        ]
        report["verified"] = exit_code == 0
    return report, exit_code


def _cmd_fo(args) -> tuple[dict, int]:
    if args.i < 1:
        raise ValueError("dilation factor must be a positive integer")
    polygon = load_polytope(args.file)
    _charge_dilations(polygon, args.i, args.i, f"--i {args.i}")
    centrally_symmetric = is_centrally_symmetric(polygon)
    report: dict = {
        "fo": [
            {"i": i, "value": fo_invariant(polygon, i)}
            for i in range(1, args.i + 1)
        ],
        "centrally_symmetric": centrally_symmetric,
    }
    if centrally_symmetric:
        reflection = SymmetryGroup.generated_by([IntMat2(-1, 0, 0, -1)])
        report["weakly_symmetric_via_point_reflection"] = is_weakly_symmetric(
            polygon, reflection
        )
    if args.group:
        group = load_group(args.group)
        report["group_order"] = len(group)
        report["weakly_symmetric"] = is_weakly_symmetric(polygon, group)
    return report, 0


def _cmd_mukai(args) -> tuple[dict, int]:
    configuration = load_points(args.file)
    result = mukai_classify(configuration)
    return {
        "points": len(configuration),
        "verdict": result.verdict,
        "witness": result.witness._asdict(),
    }, 0


def _cmd_replicate(args) -> tuple[dict, int]:
    # loaded here, not with the other layers: its fixtures are built on
    # import, and no other subcommand needs them
    from .replicate import run_replication

    results = run_replication()
    failing = [r.name for r in results if not r.passed]
    report = {
        "fixtures": [
            {
                "name": r.name,
                "status": "pass" if r.passed else "FAIL",
                "checks": len(r.checks),
                "failures": [
                    {"check": c.name, "detail": c.detail} for c in r.checks if not c.passed
                ],
            }
            for r in results
        ],
        "all_pass": not failing,
    }
    if failing:
        report["failing"] = failing
    return report, 0 if not failing else 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    report: dict = {"command": args.command}
    if getattr(args, "file", None):
        try:
            report["input_digest"] = file_digest(args.file)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        body, exit_code = args.run(args)
        report.update(body)
        # rendering can fail too: an int past the interpreter's digit limit
        text = render_report(report, as_json=args.json)
    except PolychowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    elapsed_ms = (time.monotonic() - started) * 1000.0
    print(f"# duration: {elapsed_ms:.1f} ms", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
