#!/usr/bin/env python3
"""Benchmark of orbitseries: full verify, one-shot CLI calls, classical sweeps.

    python3 bench/run.py --workload verify|cli|classical --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ./src and
nothing is installed. Workloads:

  verify     `orbitseries verify --json` with the default config, one fresh
             process per operation (the seed is not used: it is exhaustive).
  cli        a seeded mix of one-shot `orbitseries` invocations, one fresh
             process each, including bad input that must exit 2.
  classical  in one long-lived child process (bench/classical.py): the
             centralizer-oracle sweep over every partition of sl/so/sp up to
             8 and the magic-square propagation sweep to n=28 (exhaustive,
             the seed is not used).

Every operation's output is compared with bench/references.json, recorded
by bench/refs.py from the code of the commit that added the benchmark. With
--trace 0 the run is untraced and reports the end-to-end metrics, as
seconds at the reference speed of bench/probe.py: every measured process
runs the speed probe, and its times are scaled by the speed the probe saw,
because the shared host's CPU speed drifts from run to run. With
--trace 1 it runs each operation twice in a row, once untraced and once with
the layer wrappers of bench/tracing.py installed, and reports the per-layer
metrics. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
REFS_PATH = os.path.join(HERE, "references.json")
SETUP_REPS = 11
CHILD_TIMEOUT_S = 100
REPORT = "{report}"   # placeholder in verify argvs for the --json report path

WORKLOADS = ("verify", "cli", "classical")
KINDS = ("list", "show", "export", "diagram", "grading", "points", "verify", "bad")

# The cli mix. No record of real usage exists, so the proportions are an
# assumption, not measured traffic: each of the five groups of invocations
# gets an equal share, and within a group its slots take turns. A slot is
# one command kind (the part before "-"), split where the argument changes
# the time (the algebra for diagram and grading, the suite for verify);
# bench/references.json lists the argvs of each slot.
GROUPS = {
    "lookup": ("list", "show", "export"),
    "diagram": ("diagram-f4", "grading-f4", "diagram-e6", "grading-e6",
                "diagram-e7", "grading-e7", "diagram-e8", "grading-e8"),
    "points": ("points",),
    "verify": ("verify-dims", "verify-gradings"),
    "bad": ("bad",),
}

FULL_VERIFY = ("verify", "--json", REPORT)


def cli_deck(space: dict, seed: int):
    """Endless seeded stream of (kind, argv): rounds with one invocation per
    group in seeded order; each group's slots take turns, and the argv is a
    seeded draw from the slot."""
    rng = random.Random(seed)
    turns = {}
    for g, slots in GROUPS.items():
        k = rng.randrange(len(slots))
        turns[g] = itertools.cycle(slots[k:] + slots[:k])
    groups = list(GROUPS)
    while True:
        rng.shuffle(groups)
        for g in groups:
            slot = next(turns[g])
            yield slot.split("-")[0], rng.choice(space[slot])


def verify_deck(space: dict, seed: int):
    """The verify workload: the full default verify, every time."""
    return itertools.repeat(("verify", FULL_VERIFY))


# -- running and checking one fresh process ------------------------------------


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def spawn(cmd, env, out, err) -> tuple[float, int | None]:
    """Run cmd to completion: (wall seconds, exit code or None on timeout).

    The parent blocks in waitpid, which returns as soon as the child exits;
    subprocess's own timeout polls with sleeps of up to 50 ms and would add
    that much to every measured invocation. The child is killed if the wait
    is interrupted.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status = os.waitpid(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, ChildTimeout):
            return time.perf_counter() - t0, None
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return wall, proc.returncode


class Child:
    """Runs `orbitseries` command lines in fresh processes inside a scratch dir."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.report = os.path.join(tmp, "report.json")
        self.summary = os.path.join(tmp, "summary.json")
        self.stats = os.path.join(tmp, "stats.json")

    def run(self, argv, traced: bool = False) -> dict:
        """One invocation: wall time less the probe's ticks, exit code,
        outputs, and the ticks (untraced) or the trace summary (traced)."""
        args = [self.report if a == REPORT else a for a in argv]
        for path in (self.report, self.summary, self.stats):
            if os.path.exists(path):
                os.remove(path)
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                   self.summary, *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), self.stats, *args]
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            wall, rc = spawn(cmd, self.env, out, err)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        res = {"wall": wall, "rc": rc, "rss_mb": 0.0, "ticks": [], "stdout": stdout,
               "stderr": stderr, "report": None, "summary": None}
        if os.path.exists(self.stats):
            with open(self.stats, encoding="ascii") as fh:
                stats = json.load(fh)
            res["rss_mb"] = stats["peak_kb"] / 1024
            res["ticks"] = stats["ticks"]
            res["wall"] -= sum(res["ticks"])
        if REPORT in argv and os.path.exists(self.report):
            with open(self.report, "rb") as fh:
                data = fh.read()
            res["report_sha256"] = hashlib.sha256(data).hexdigest()
            try:
                res["report"] = json.loads(data)
            except ValueError:
                pass   # a malformed report fails the reference check
        if traced and os.path.exists(self.summary):
            with open(self.summary, encoding="utf-8") as fh:
                res["summary"] = json.load(fh)
        return res


def result_triples(report: dict) -> list[list[str]]:
    """Order-free (suite, subject, status) view of a verify JSON report."""
    return sorted([r["suite"], r["subject"], r["status"]] for r in report["results"])


def observe(argv, res: dict) -> dict:
    """What the references record of one invocation."""
    obs = {"rc": res["rc"]}
    if REPORT in argv:
        lines = res["stdout"].decode("utf-8", "replace").splitlines()
        obs["summary"] = lines[-1] if lines else ""
        try:
            obs["results"] = result_triples(res["report"])
        except (KeyError, TypeError):
            obs["results"] = None   # no report, or not one of this shape
    else:
        obs["stdout_sha256"] = hashlib.sha256(res["stdout"]).hexdigest()
    return obs


def check(argv, res: dict, ref: dict | None, traced: bool = False) -> bool:
    """An invocation is correct when it matches its reference, shows no
    failed check and prints no traceback."""
    if ref is None or b"Traceback" in res["stderr"]:
        return False
    if traced and res["summary"] is None:
        return False
    obs = observe(argv, res)
    if obs != ref:
        return False
    return res["report"] is None or res["report"].get("summary", {}).get("fail") == 0


def argv_key(argv) -> str:
    return " ".join(argv)


# -- metrics helpers -----------------------------------------------------------


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def p90(xs) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


SETUP_CODE = ("import json, time, probe; p = probe.Probe().start(); "
              "import orbitseries; orbitseries.all_series(); "
              "ticks = p.stop(); print(json.dumps([time.perf_counter(), ticks]))")


def setup_time(tmp: str) -> dict:
    """Time from interpreter start to package imported and registry built, in
    a fresh process with the speed probe running (the child prints its
    perf_counter, a system-wide monotonic clock, and the probe's ticks).
    Returns {"wall", "ticks"}, the wall time less the ticks."""
    out_path = os.path.join(tmp, "setup.out")
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        _, rc = spawn([sys.executable, "-c", SETUP_CODE],
                      dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE))),
                      out, None)
    if rc != 0:
        raise SystemExit(f"bench: importing the package failed ({rc})")
    with open(out_path, encoding="utf-8") as fh:
        t1, ticks = json.load(fh)
    return {"wall": t1 - t0 - sum(ticks), "ticks": ticks}


def timed_loop(budget_s: float, op, sample=None) -> tuple[list, list]:
    """Call op() until the next call would likely overrun budget_s; at least
    once. If sample is given, also call it SETUP_REPS times, spread over the
    run (before each operation, as many as are due by then; the rest at the
    end), so that its median sees the same changes in machine speed as the
    operations do. Returns the operation results and the samples."""
    results, walls, samples = [], [], []
    reps = SETUP_REPS if sample else 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if results and elapsed + median(walls) > budget_s:
            break
        due = min(reps, 1 + int((reps - 1) * elapsed / budget_s))
        while len(samples) < due:
            samples.append(sample())
        r = op()
        results.append(r)
        walls.append(r["wall"])
    while len(samples) < reps:
        samples.append(sample())
    return results, samples


# -- workloads ------------------------------------------------------------------
#
# A workload draws operations and runs them. run_op returns one result,
# {"wall", "ok", "kind", "rss_mb", "summary", ...}, where "summary" is the
# trace summary ({layers, reduced_distinct, import_s}) of a traced operation.


class ProcessWorkload:
    """Each operation is one `orbitseries` command line in a fresh process,
    drawn from a deck (cli_deck or verify_deck)."""

    def __init__(self, refs: dict, seed: int, tmp: str, deck):
        self.refs, self.child = refs, Child(tmp)
        self.deck = deck(refs["cli_space"], seed)

    def draw(self):
        return next(self.deck)

    def run_op(self, item, traced: bool) -> dict:
        kind, argv = item
        res = self.child.run(argv, traced)
        res["ok"] = check(argv, res, self.refs["cli"].get(argv_key(argv)), traced)
        res["kind"] = kind
        return res

    def close(self) -> None:
        pass


class ClassicalWorkload:
    """Each operation is one classical sweep in a long-lived child process,
    bench/classical.py, so that the peak RSS is that of the sweeps alone."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "classical.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=SRC), text=True)

    def draw(self):
        return "classical"

    def run_op(self, item, traced: bool) -> dict:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            self.proc.stdin.write("1\n" if traced else "0\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except ChildTimeout:
            raise SystemExit(f"bench: a classical sweep took over {CHILD_TIMEOUT_S} s")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        if not line:
            raise SystemExit("bench: the classical sweep process ended early")
        res = json.loads(line)
        res["ok"] = (res["stats"] == self.refs["classical"]
                     and (res["summary"] is not None) == traced)
        res["kind"] = "classical"
        return res

    def close(self) -> None:
        """Stop the child; between operations it only waits for stdin."""
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def make_workload(name: str, refs: dict, seed: int, tmp: str):
    if name == "classical":
        return ClassicalWorkload(refs)
    return ProcessWorkload(refs, seed, tmp, cli_deck if name == "cli" else verify_deck)


def paired_op(workload):
    """For traced runs: one drawn operation run twice in a row, untraced and
    traced, the order alternating from pair to pair, so that both halves of
    a pair see the same machine speed."""
    traced_first = itertools.cycle((False, True))

    def op():
        item = workload.draw()
        first = next(traced_first)
        a = workload.run_op(item, traced=first)
        b = workload.run_op(item, traced=not first)
        traced, untraced = (a, b) if first else (b, a)
        return {"wall": a["wall"] + b["wall"], "untraced": untraced, "traced": traced}
    return op


# -- per-layer metrics from a traced run -------------------------------------------

TIMED_LAYERS = {   # layer -> the per-layer fields reported for it
    "exactpoly.reduced": ("calls", "s", "self_s"),
    "exactpoly.expand": ("calls", "s", "self_s"),
    "exactpoly.reduce_pair": ("calls", "s", "self_s"),
    "exactpoly.poly_gcd": ("calls", "s", "self_s"),
    "exactpoly.exact_div": ("calls", "s", "self_s"),
    "exactpoly.degree_in_q": ("calls", "s", "self_s"),
    "exactpoly.qlaurent_eval": ("calls", "s", "self_s"),
    "rootsystems.build": ("calls", "s"),
    "rootsystems.build_root_system": ("calls",),
    "rootsystems.grading_dims": ("calls", "s", "self_s"),
    "rootsystems.series_weight_to_diagram": ("calls", "s"),
    "partitions.centralizer_oracle": ("calls", "s", "self_s"),
    "partitions.orbit_dim_classical": ("calls", "s", "self_s"),
    "partitions.propagate": ("calls", "s", "self_s"),
    "partitions.magic_dim_formula": ("calls", "s", "self_s"),
    "seriesdb.all_series": ("calls", "s"),
    "seriesdb.group_order": ("calls", "s", "self_s"),
    "verify.check_dims": ("s", "self_s"),
    "verify.check_gradings": ("s", "self_s"),
    "verify.check_pointcounts": ("s", "self_s"),
    "verify.check_characters": ("s", "self_s"),
    "verify.check_universal": ("s", "self_s"),
    "verify.check_errata": ("s", "self_s"),
    "verify.report_json": ("s",),
    "serialize.registry_to_json": ("calls", "s"),
}
LAYER_MODULES = ("exactpoly", "rootsystems", "partitions", "seriesdb", "verify",
                 "serialize")
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{layer}.{f}", UNITS[f])
             for layer, fields in TIMED_LAYERS.items() for f in fields]
    names += [("exactpoly.reduced.distinct_ratio", "ratio"),
              ("rootsystems.build_root_system.hit_ratio", "ratio")]
    names += [(f"layer.{m}.self_s", "s") for m in LAYER_MODULES]
    names += [(f"verify.results.{s}", "count") for s in ("pass", "fail", "recorded")]
    names += [("cli.import_s", "s")] + [(f"cli.{k}.p50_s", "s") for k in KINDS]
    names += [("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio"),
              ("trace.attributed_ratio", "ratio"), ("trace.unattributed_s", "s"),
              ("failed_ratio", "ratio")]
    return names


def layer_metrics(untraced: list, traced: list) -> dict[str, float]:
    """Per-operation means over the traced operations, plus ratios. The two
    lists are the halves of the same pairs, in order."""
    n = len(traced)
    summaries = [r["summary"] for r in traced if r["summary"] is not None]
    layers: dict[str, dict] = {}
    distinct = sum(s["reduced_distinct"] for s in summaries)
    import_times = [s["import_s"] for s in summaries if s["import_s"] is not None]
    for summary in summaries:
        for name, d in summary["layers"].items():
            if name == "op":
                continue
            acc = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for f in acc:
                acc[f] += d[f]

    def get(layer, field):
        return layers.get(layer, {}).get(field, 0)

    m: dict[str, float] = {}
    for layer, fields in TIMED_LAYERS.items():
        for f in fields:
            m[f"{layer}.{f}"] = get(layer, f) / n
    reduced_calls = get("exactpoly.reduced", "calls")
    m["exactpoly.reduced.distinct_ratio"] = distinct / reduced_calls if reduced_calls else 0.0
    brs = get("rootsystems.build_root_system", "calls")
    m["rootsystems.build_root_system.hit_ratio"] = (
        1 - get("rootsystems.build", "calls") / brs if brs else 0.0)
    total_self = 0.0
    for mod in LAYER_MODULES:
        s = sum(d["self_s"] for name, d in layers.items() if name.startswith(mod + "."))
        m[f"layer.{mod}.self_s"] = s / n
        total_self += s
    for status, key in (("pass", "pass"), ("fail", "fail"),
                        ("recorded", "discrepancy-recorded")):
        m[f"verify.results.{status}"] = sum(
            r["report"].get("summary", {}).get(key, 0)
            for r in traced if r.get("report")) / n
    m["cli.import_s"] = median(import_times)
    for kind in KINDS:
        m[f"cli.{kind}.p50_s"] = median([r["wall"] for r in untraced
                                        if r["kind"] == kind])
    traced_wall = [r["wall"] for r in traced]
    m["trace.wall_s"] = median(traced_wall)
    m["trace.overhead_ratio"] = median([t["wall"] / u["wall"]
                                        for u, t in zip(untraced, traced)])
    m["trace.attributed_ratio"] = total_self / sum(traced_wall)
    m["trace.unattributed_s"] = (sum(traced_wall) - total_self) / n
    return m


# -- main -----------------------------------------------------------------------


def load_refs() -> dict:
    if not os.path.isdir(os.path.join(SRC, "orbitseries")):
        raise SystemExit("bench: no package at ./src/orbitseries; run from the "
                         "root of an orbitseries checkout")
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    refs = load_refs()
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    workload = None
    try:
        workload = make_workload(workload_name, refs, seed, tmp)
        if trace:
            pairs, _ = timed_loop(seconds, paired_op(workload))
            untraced = [p["untraced"] for p in pairs]
            traced = [p["traced"] for p in pairs]
        else:
            untraced, setups = timed_loop(
                seconds, lambda: workload.run_op(workload.draw(), traced=False),
                lambda: setup_time(tmp))
            traced = []
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(tmp, ignore_errors=True)

    done = untraced + traced
    failed = sum(not r["ok"] for r in done)
    walls = [r["wall"] for r in untraced]
    kinds = {}
    for r in done:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    print(f"workload {workload_name}: {len(untraced)} untraced and {len(traced)} "
          f"traced operations {kinds}, {failed} failed")
    hashes = sorted({r["report_sha256"] for r in done if "report_sha256" in r})
    if hashes and workload_name == "verify":
        print(f"verify report sha256 {', '.join(hashes)} "
              f"(reference {refs['verify_report_sha256']}; information only)")
    if trace:
        values = layer_metrics(untraced, traced)
        values["failed_ratio"] = failed / len(done)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        # Times at the reference speed of probe.py: each process's wall time
        # less its probe ticks, scaled by the speed its own ticks measured.
        ops = [r["wall"] * probe.speed(r["ticks"]) for r in untraced]
        setup_times = [r["wall"] * probe.speed(r["ticks"]) for r in setups]
        ticks = [t for r in untraced + setups for t in r["ticks"]]
        print(f"probe: speed {probe.speed(ticks):.4f} of the reference over "
              f"{len(ticks)} ticks; unscaled medians op {median(walls):.4f} s, "
              f"setup {median([r['wall'] for r in setups]):.4f} s")
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "op_p50_s": {"value": median(ops), "unit": "s"},
            "op_p90_s": {"value": p90(ops), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in untraced),
                            "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": len(done), "failed": failed,
            "metrics": metrics}


def _on_term(signum, frame):
    sys.exit(128 + signum)   # unwinds through spawn, which kills its child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _on_term)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
