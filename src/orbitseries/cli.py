"""Command-line interface: browse the registry, print diagrams and gradings,
evaluate point counts, run the verification suites and export the tables."""

from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction

from . import seriesdb as db
from .exactpoly import QLaurent

# rootsystems, verify, serialize, json, csv and io are imported by the
# commands that use them: a one-shot lookup should not pay for compiling the
# root systems or the verifier.

USAGE_ERROR = 2


def cmd_list(args) -> int:
    rows = [args.row] if args.row else db.rows()
    for row in rows:
        for rec in db.series_by_row(row):
            print(f"{row:16s} {rec.label:22s} dim O_a = {str(rec.dim):8s}"
                  f" dim r(a) = {rec.rad}")
    return 0


def cmd_show(args) -> int:
    rec = db.lookup(args.row, args.label)
    print(f"series {rec.label}  (row {rec.row})")
    if rec.exponents:
        print(f"  weight exponents (p,q,r,s) = {rec.exponents}")
    print(f"  dim O_a  = {rec.dim}")
    print(f"  dim r(a) = {rec.rad}")
    print(f"  fundamental group: {rec.fundamental_group}")
    if rec.so8_partition:
        print(f"  so8 member (a=0): partition {rec.so8_partition}, h = {rec.so8_h}")
    for m in rec.members:
        datum = ""
        if m.family is not None:
            datum = f"  [{m.family.tag}: {m.datum}]"
        print(f"  a={m.a}: {m.ambient.name:6s} orbit {m.carter:12s} h(a) = {m.h}{datum}")
    for i, claim in rec.grading_claims:
        print(f"  grading claim: dim g(a,{i}) = {claim}")
    for c in rec.characters:
        print(f"  character [{c.name}] = {c.body.constant} * q^(N-({c.shift})) * (...)"
              f"  for a in {c.a_values}")
    for n in rec.named_degrees:
        print(f"  named degree a={n.a}: {n.label} via [{n.variant}]")
    for note in rec.notes:
        print(f"  note: {note}")
    return 0


def cmd_diagram(args) -> int:
    print(db.lookup(args.row, args.label).diagram(args.algebra).pretty())
    return 0


def cmd_grading(args) -> int:
    from . import rootsystems as rsys
    wd = db.lookup(args.row, args.label).diagram(args.algebra)
    dims = rsys.grading_dims(wd)
    if args.json:
        import json
        print(json.dumps({str(i): d for i, d in sorted(dims.items())}))
    else:
        for i, d in sorted(dims.items()):
            print(f"{i:3d}: {d}")
        print(f"orbit dimension {rsys.orbit_dim_from_diagram(wd)}")
    return 0


def _decimal(n: int) -> str:
    """Decimal digits of n, also past the interpreter's int-to-str digit limit."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() < 10_000:   # under 3,011 digits
        return str(n)
    k = n.bit_length() * 3 // 20   # about half the digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def cmd_points(args) -> int:
    num, den = db.lookup(args.row, args.label).point_count.reduced(Fraction(args.a))
    if args.q is not None:
        q = Fraction(args.q)
        value = num.eval_at(q) / den.eval_at(q)
        text = _decimal(value.numerator)
        print(text if value.denominator == 1 else f"{text}/{_decimal(value.denominator)}")
        return 0
    if den == QLaurent.one():
        print(num)
    else:
        print(f"({num}) / ({den})")
    return 0


def cmd_verify(args) -> int:
    from . import verify
    default = verify.VerifyConfig()
    report = verify.run_all(verify.VerifyConfig(tuple(args.suite or default.suites),
                                                tuple(args.a or default.a_values)))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.as_json())
    print(report.as_text())
    return report.exit_code


def _export_json() -> str:
    import json
    from . import serialize
    return json.dumps(serialize.registry_to_json(), indent=2, sort_keys=True)


def _export_csv() -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row", "label", "dim", "rad", "a", "ambient", "carter", "h",
                     "dim_at_a"])
    for rec in db.all_series():
        for m in rec.members:
            writer.writerow([rec.row, rec.label, rec.dim, rec.rad, m.a,
                             m.ambient.name, m.carter, m.h.name, int(rec.dim(m.a))])
    return buf.getvalue()


def _export_latex() -> str:
    lines = []
    for rec in db.all_series():
        label = rec.label.replace("^", r"\^{}")
        carters = ", ".join(m.carter for m in rec.members)
        hs = ", ".join(m.h.name or "0" for m in rec.members)
        lines.append(r"\begin{array}{ll}")
        lines.append(rf"\text{{{label}}} & \dim O_a = {rec.dim} \\")
        lines.append(rf" & \dim r(a) = {rec.rad} \\")
        lines.append(rf"[{carters}] & h(a) = {hs}")
        lines.append(r"\end{array}")
        lines.append("")
    return "\n".join(lines)


def cmd_export(args) -> int:
    data = {"json": _export_json, "csv": _export_csv, "latex": _export_latex}[
        args.format]()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(data)
    else:
        print(data)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitseries", allow_abbrev=False,
        description="Series of nilpotent orbits: tables, diagrams and exact "
                    "verification. Series labels are ASCII: g.g3.gQ^2 names "
                    "the orbit with weight exponents (1,0,1,2).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", allow_abbrev=False,
                       help="series labels and dimension formulas")
    p.add_argument("--row", choices=db.rows())
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("show", allow_abbrev=False, help="print one full series record")
    p.add_argument("row", choices=db.rows())
    p.add_argument("label")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("diagram", allow_abbrev=False,
                       help="weighted Dynkin diagram of a member")
    p.add_argument("row", choices=("f4", "e6"))
    p.add_argument("label")
    p.add_argument("--algebra", required=True,
                   help="one of f4, e6, e7, e8")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("grading", allow_abbrev=False,
                       help="eigenspace dimensions of the diagram")
    p.add_argument("row", choices=("f4", "e6"))
    p.add_argument("label")
    p.add_argument("--algebra", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_grading)

    p = sub.add_parser("points", allow_abbrev=False,
                       help="reduced point-count polynomial or value")
    p.add_argument("row", choices=("f4", "e6"))
    p.add_argument("label")
    p.add_argument("--a", required=True, type=int, choices=db.EXCEPTIONAL_AMBIENTS)
    p.add_argument("--q", type=int)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("verify", allow_abbrev=False, help="run the verification suites")
    p.add_argument("--suite", action="append",
                   choices=("dims", "gradings", "pointcounts", "characters",
                            "universal", "errata"))
    p.add_argument("--a", action="append", type=int, choices=db.EXCEPTIONAL_AMBIENTS)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", allow_abbrev=False, help="dump the registry")
    p.add_argument("--format", required=True, choices=("json", "csv", "latex"))
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (db.UnknownSeriesError, ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


def run() -> int:
    """Process entry of `orbitseries` and `python -m orbitseries.cli`: the exit
    code of main(), with the heap frozen before the interpreter shuts down.

    Frozen objects sit in gc's permanent generation, which the collections
    at interpreter exit do not walk; reference counting, module teardown,
    atexit handlers and the flush of stdout/stderr still run.  main() itself
    leaves the collector alone, since in-process callers keep running."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
