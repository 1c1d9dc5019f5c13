#!/usr/bin/env python3
"""Record bench/references.json: the outputs the benchmark checks against.

    python3 bench/refs.py

Run from the root of a checkout whose code is trusted (the references were
recorded from the code of the commit that added the benchmark). It runs
every argv the cli workload can draw and the full verify, each in a fresh
process, plus one classical sweep in process, and stops without writing if
any of them misbehaves: a traceback, a failed verify check, an exit code
other than 2 for bad input or other than 0 for the rest, or a mismatch in
the classical sweep.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile

import run


def cli_space() -> dict[str, list[tuple[str, ...]]]:
    """Every argv the cli workload can draw, by slot of run.GROUPS."""
    sys.path.insert(0, run.SRC)
    from orbitseries import seriesdb as db

    space: dict[str, list[tuple[str, ...]]] = {
        slot: [] for slots in run.GROUPS.values() for slot in slots}
    space["list"] = [("list",)] + [("list", "--row", r) for r in db.rows()]
    space["show"] = [("show", r.row, r.label) for r in db.all_series()]
    space["export"] = [("export", "--format", f) for f in ("json", "csv", "latex")]
    for r in db.all_series():
        if r.row not in ("f4", "e6"):
            continue
        for alg in ("f4", "e6", "e7", "e8"):
            space[f"diagram-{alg}"].append(("diagram", r.row, r.label, "--algebra", alg))
            space[f"grading-{alg}"] += [
                ("grading", r.row, r.label, "--algebra", alg),
                ("grading", r.row, r.label, "--algebra", alg, "--json")]
        for a in ("1", "2", "4", "8"):
            base = ("points", r.row, r.label, "--a", a)
            space["points"].append(base)
            for q in (("16", "81") if a == "1" else ("2", "3", "7")):
                space["points"].append(base + ("--q", q))
            # a=1 values carry quarter powers of q: 2 and 3 are no fourth powers
            space["bad"] += [base + ("--q", "0")] if a != "1" else \
                [base + ("--q", "2"), base + ("--q", "3")]
    for suite in ("dims", "gradings"):
        space[f"verify-{suite}"] = [("verify", "--suite", suite, "--json", run.REPORT)]
    space["bad"] += [("show", "e6", "nope"), ("points", "f4", "nope", "--a", "2"),
                     ("diagram", "f4", "nope", "--algebra", "e8"),
                     ("grading", "f4", "g", "--algebra", "g2"),
                     ("points", "f4", "g", "--a", "3")]
    return space


def main() -> int:
    sys.path.insert(0, run.SRC)
    import orbitseries.partitions as pt
    from classical import classical_sweep

    space = cli_space()
    slots = {"full-verify": [run.FULL_VERIFY], **space}
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=run.ROOT)
    refs = {"cli": {}, "cli_space": space}
    problems = []
    try:
        child = run.Child(tmp)
        for slot, argvs in slots.items():
            walls = []
            for argv in argvs:
                res = child.run(argv)
                walls.append(res["wall"])
                want_rc = 2 if slot == "bad" else 0
                if (res["rc"] != want_rc or b"Traceback" in res["stderr"]
                        or (res["report"] and res["report"]["summary"]["fail"])):
                    problems.append((argv, res["rc"], res["stderr"][-300:]))
                refs["cli"][run.argv_key(argv)] = run.observe(argv, res)
                if argv == run.FULL_VERIFY:
                    refs["verify_report_sha256"] = res["report_sha256"]
            print(f"{slot:16s} {len(argvs):4d} argvs, median "
                  f"{statistics.median(walls):.3f} s, max {max(walls):.3f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    refs["classical"] = classical_sweep(pt)
    if problems:
        for p in problems:
            print("problem:", p, file=sys.stderr)
        return 1
    with open(run.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFS_PATH}: {len(refs['cli'])} cli argvs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
