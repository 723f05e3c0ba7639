"""soficert benchmark: four workloads driven through the public CLI.

Run from the repository root:

    python3 bench/run.py --workload small-jobs --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop (one client, one thread):
pass after pass over the workload's jobs, each ``approx``, ``verify``
and ``subgroup`` call going through ``soficert.cli.main`` exactly as the
command line would.  Every outcome is checked; an unexpected one ends
the run with ``"correct": false`` and exit code 1, without metrics.
With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
each call's time scaled to a reference host speed (see calibration.py); with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics and the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads
from calibration import Calibration
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15

END_TO_END = {
    "build_s": "s",
    "verify_s": "s",
    "reject_s": "s",
    "subgroup_s": "s",
    "carrier_size": "points",
    "cert_bytes": "bytes",
    "built_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric prefix -> span key; each gives <prefix>_s and <prefix>_self_s
TIMED_SPANS = [
    ("cli.cmd_approx", "cli.cmd_approx"),
    ("cli.cmd_verify", "cli.cmd_verify"),
    ("cli.cmd_subgroup", "cli.cmd_subgroup"),
    ("stallings.core_graph", "stallings.core_graph"),
    ("stallings.hall_completion", "stallings.hall_completion"),
    ("stallings.image_group", "stallings.image_group"),
    ("builder.approximate", "builder.approximate"),
    ("builder.finite_index_witness", "builder.finite_index_witness"),
    ("builder.lift_witness", "builder.lift_witness"),
    ("builder.biregular_approximation", "builder.biregular_approximation"),
    ("builder.restrict_certificate", "builder.restrict_certificate"),
    ("builder.write_certificate", "builder.write_certificate"),
    ("builder.load_certificate", "builder.load_certificate"),
    ("builder.certificate_from_dict", "builder.certificate_from_dict"),
    ("verifier.verify_certificate", "verifier.verify_certificate"),
    # defined in permutations, called only by the verifier
    ("verifier.is_permutation", "permutations.is_permutation"),
    ("verifier.check_unital", "verifier.check_unital"),
    ("verifier.check_multiplicative", "verifier.check_multiplicative"),
    ("verifier.check_orbit_witness", "verifier.check_orbit_witness"),
    ("actions.canonical_point", "actions.canonical_point"),
    ("actions.separation_targets", "actions.separation_targets"),
    ("actions.act", "actions.act"),
]
# metric -> span key whose call count it is
CALL_COUNTS = {
    "actions.canonical_point_calls": "actions.canonical_point",
    "actions.act_calls": "actions.act",
    "permutations.compose_calls": "permutations.compose",
    "permutations.inverse_calls": "permutations.inverse",
}
# metric -> span key whose arguments or result it is read from
RESULT_COUNTS = {
    "stallings.separator_index": "stallings.hall_completion",
    "stallings.image_group_order": "stallings.image_group",
    "stallings.image_group_refusals": "stallings.image_group",
    "verifier.multiplicative_pairs": "verifier.check_multiplicative",
    "verifier.triples_checked": "verifier.check_orbit_witness",
    "verifier.violations": "verifier.verify_certificate",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for prefix, _ in TIMED_SPANS:
        units[f"{prefix}_s"] = "s"
        units[f"{prefix}_self_s"] = "s"
    for name in list(CALL_COUNTS) + list(RESULT_COUNTS) + ["cli.refusals"]:
        units[name] = "count"
    units["trace_overhead_ratio"] = "ratio"
    return units


class GateError(RuntimeError):
    """An outcome the benchmark does not accept."""


def gate(cond: bool, what: str) -> None:
    if not cond:
        raise GateError(what)


# ---------------------------------------------------------------------------
# set-up


def soficert_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "soficert" or name.startswith("soficert."))]


def import_soficert():
    """Import the package afresh from this checkout's src/."""
    for module in soficert_modules():
        del sys.modules[module.__name__]
    cli = importlib.import_module("soficert.cli")
    gate(Path(cli.__file__).resolve().is_relative_to(SRC.resolve()),
         f"soficert imported from {cli.__file__}, not from {SRC}")
    return cli


def write_inputs(workload: str, seed: int, workdir: Path) -> list[workloads.Job]:
    jobs = workloads.BUILDERS[workload](seed)
    for job in jobs:
        if job.approx is not None:
            (workdir / f"{job.name}.job.json").write_text(json.dumps(job.approx))
    return jobs


def timed_setup(workload: str, seed: int, workdir: Path, calibration: Calibration):
    """Median of several (fresh import + input generation) timings, each
    as wall seconds and at the reference host speed."""
    spans = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_soficert()
        jobs = write_inputs(workload, seed, workdir)
        spans.append((start, time.perf_counter()))
        calibration.sample()
    wall = statistics.median(end - start for start, end in spans)
    return jobs, wall, statistics.median(calibration.scale(*span) for span in spans)


def process_caches() -> list:
    """Module-level function caches; a fresh CLI process starts with them
    empty, so each call here does too."""
    found = {}
    for module in soficert_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


# ---------------------------------------------------------------------------
# the closed loop


def walk(tables: list[list[int]], word: str) -> int:
    """Coset reached from 0 by reading ``word`` letter by letter."""
    inverses = []
    for img in tables:
        inv = [0] * len(img)
        for i, x in enumerate(img):
            inv[x] = i
        inverses.append(inv)
    state = 0
    for ch in word if word != "1" else "":
        state = tables[ord(ch) - 97][state] if ch.islower() else inverses[ord(ch) - 65][state]
    return state


class Loop:
    def __init__(self, jobs, seed: int, workdir: Path, calibration: Calibration):
        self.jobs = jobs
        self.seed = seed
        self.workdir = workdir
        self.caches = process_caches()
        self.calibration = calibration
        self.attempted = 0
        self.refusals = 0
        self.call_time = 0.0
        # (kind, job) -> (start, end) of each call, over the passes
        self.spans: dict[tuple[str, str], list[tuple[float, float]]] = defaultdict(list)
        self.records: dict[str, dict] = {}

    def call(self, argv: list[str]) -> tuple[int, tuple[float, float], str, str]:
        for cache in self.caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        main = sys.modules["soficert.cli"].main
        self.attempted += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        end = time.perf_counter()
        self.call_time += end - start
        self.calibration.maybe_sample()
        return rc, (start, end), out.getvalue(), err.getvalue()

    def run_job(self, job) -> None:
        if job.approx is not None:
            self.build(job)
        if job.subgroup is not None:
            self.inspect(job)

    def run_pass(self) -> float:
        """One pass over the jobs; returns the time spent inside CLI calls."""
        self.call_time = 0.0
        for job in self.jobs:
            self.run_job(job)
        return self.call_time

    def run_jobs(self, seconds: float) -> int:
        """Passes over the jobs, job by job, while the next job is expected
        to end within ``seconds`` (the first pass always runs whole, the
        last may not); returns the number of jobs run."""
        durations: dict[str, list[float]] = defaultdict(list)
        start = time.perf_counter()
        while True:
            for job in self.jobs:
                past = durations[job.name]
                if past and time.perf_counter() - start + statistics.median(past) > seconds:
                    return sum(map(len, durations.values()))
                t0 = time.perf_counter()
                self.run_job(job)
                durations[job.name].append(time.perf_counter() - t0)

    def _record(self, job, key: str, value) -> None:
        """Store a per-job fact on the first pass; later passes must match it."""
        rec = self.records.setdefault(job.name, {})
        if key in rec:
            gate(rec[key] == value, f"{job.name}: {key} changed between passes: "
                                    f"{rec[key]!r} -> {value!r}")
        rec[key] = value

    def build(self, job) -> None:
        config = self.workdir / f"{job.name}.job.json"
        cert = self.workdir / f"{job.name}.cert.json"
        rc, span, out, err = self.call(["approx", "--config", str(config), "--out", str(cert), "--json"])
        self.spans[("build", job.name)].append(span)
        if rc == 2:
            match = re.match(r"error \[([\w-]+)\]: ", err)
            gate(match is not None, f"{job.name}: refusal names no stage: {err!r}")
            self.refusals += 1
            self._record(job, "outcome", f"refused at {match.group(1)}")
            return
        gate(rc == 0, f"{job.name}: approx exited {rc}: {err!r}")
        summary = json.loads(out)
        data = cert.read_bytes()
        self._record(job, "outcome", "built")
        self._record(job, "sha256", hashlib.sha256(data).hexdigest())
        self._record(job, "carrier_size", summary["carrier_size"])
        self._record(job, "b_size", summary["b_size"])
        for key in ("separator_index", "quotient_order"):
            if key in summary:
                self._record(job, f"build_{key}", summary[key])
        self._record(job, "bytes", len(data))

        rc, span, out, err = self.call(["verify", str(cert), "--json"])
        self.spans[("verify", job.name)].append(span)
        report = json.loads(out) if rc in (0, 1) else {}
        gate(rc == 0 and report.get("verdict") == "accept" and report.get("max_defect") == "0"
             and report.get("s_ratio") == "1",
             f"{job.name}: built certificate not exact: exit {rc}, {out or err!r}")
        gate(report["carrier_size"] == summary["carrier_size"], f"{job.name}: |A| disagrees")

        mutant = self.workdir / f"{job.name}.mutant.json"
        if "mutation" not in self.records[job.name]:
            rng = random.Random(f"{self.seed}/{job.name}")
            mutated, kind, description = workloads.mutate(json.loads(data), rng)
            mutant.write_text(json.dumps(mutated, indent=2, sort_keys=True) + "\n")
            self.records[job.name]["mutation"] = f"{kind}: {description}"
            self.records[job.name]["expected_clause"] = workloads.EXPECTED_CLAUSE[kind]
        rc, span, out, err = self.call(["verify", str(mutant), "--json"])
        self.spans[("reject", job.name)].append(span)
        report = json.loads(out) if rc in (0, 1) else {}
        expected = self.records[job.name]["expected_clause"]
        gate(rc == 1 and report.get("first_failure") and expected in report.get("violations", {}),
             f"{job.name}: mutant ({self.records[job.name]['mutation']}) not rejected "
             f"by clause {expected}: exit {rc}, {out or err!r}")

    def inspect(self, job) -> None:
        args = list(job.subgroup)
        rc, span, out, err = self.call(["subgroup", *args, "--json"])
        self.spans[("subgroup", job.name)].append(span)
        gate(rc == 0, f"{job.name}: subgroup exited {rc}: {err!r}")
        payload = json.loads(out)
        rank = int(args[args.index("--rank") + 1])
        self._record(job, "vertices", payload["vertices"])
        if job.name.startswith("cascade-"):
            gate(payload["vertices"] == 1, f"{job.name}: cascade folded to {payload['vertices']} vertices, not 1")
        if "--avoid" not in args:
            return
        gate("separator_index" in payload, f"{job.name}: no separator: {payload.get('separator')!r}")
        self._record(job, "separator_index", payload["separator_index"])
        tables = [payload[f"table_{chr(97 + i)}"] for i in range(rank)]
        n = payload["separator_index"]
        gate(all(sorted(t) == list(range(n)) for t in tables), f"{job.name}: table is not a permutation")
        gens = args[args.index("--gens") + 1]
        avoid = args[args.index("--avoid") + 1]
        gate(all(walk(tables, w) == 0 for w in gens.split(",") if w),
             f"{job.name}: a subgroup generator leaves the separator")
        gate(all(walk(tables, w) != 0 for w in avoid.split(",")),
             f"{job.name}: an avoid word lies in the separator")


def measure(loop: Loop, seconds: float, step) -> list:
    """Repeat ``step`` while the next one is expected to end within ``seconds``."""
    results, durations = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
    return results


# ---------------------------------------------------------------------------
# metrics


def call_times(loop: Loop, timer) -> dict[str, float]:
    """Per-pass seconds of each kind of call: over the workload's jobs,
    the sum of each job's median call, ``timer(start, end)`` giving a
    call's seconds."""
    def op_total(kind: str) -> float:
        return sum(statistics.median(timer(*span) for span in spans)
                   for (k, _), spans in loop.spans.items() if k == kind)

    return {name: op_total(kind) for name, kind in
            (("build_s", "build"), ("verify_s", "verify"), ("reject_s", "reject"), ("subgroup_s", "subgroup"))}


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    built = [r for r in loop.records.values() if r.get("outcome") == "built"]
    attempted = sum(1 for job in loop.jobs if job.approx is not None)
    metrics = call_times(loop, loop.calibration.scale)
    metrics.update({
        "carrier_size": sum(r["carrier_size"] for r in built),
        "cert_bytes": sum(r["bytes"] for r in built),
        "built_ratio": len(built) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    })
    return metrics


def per_layer(snapshots: list[dict], refusals_per_pass: float, overhead: float) -> dict[str, float]:
    def med(table: str, key: str) -> float:
        return statistics.median(s[table].get(key, 0) for s in snapshots)

    values = {}
    for prefix, key in TIMED_SPANS:
        values[f"{prefix}_s"] = med("total", key)
        values[f"{prefix}_self_s"] = med("self", key)
    for name, key in CALL_COUNTS.items():
        values[name] = med("calls", key)
    for name in RESULT_COUNTS:
        values[name] = med("counts", name)
    values["cli.refusals"] = refusals_per_pass
    values["trace_overhead_ratio"] = overhead
    return values


def absent_names(tracer: Tracer) -> list[str]:
    keys = [key for _, key in TIMED_SPANS] + list(CALL_COUNTS.values()) + list(RESULT_COUNTS.values())
    return sorted({key for key in keys if key not in tracer.present})


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "soficert").glob("*.py")))


# ---------------------------------------------------------------------------


def run(args, workdir: Path) -> tuple[dict, dict]:
    calibration = Calibration()
    jobs, setup_wall_s, setup_s = timed_setup(args.workload, args.seed, workdir, calibration)
    loop = Loop(jobs, args.seed, workdir, calibration)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }
    try:
        if not args.trace:
            context["passes"] = loop.run_jobs(args.seconds) / len(loop.jobs)
            context["wall_s"] = dict(call_times(loop, lambda start, end: end - start),
                                     setup_s=setup_wall_s)
            context["calibration_s"] = calibration.median_s()
            context["calibration_samples"] = len(calibration.samples)
            metrics = end_to_end(loop, setup_s)
            units = END_TO_END
        else:
            tracer = Tracer()

            def pair():
                untraced = loop.run_pass()
                tracer.install()
                try:
                    traced = loop.run_pass()
                finally:
                    tracer.uninstall()
                return untraced, traced, tracer.snapshot()

            pairs = measure(loop, args.seconds, pair)
            untraced = statistics.median(p[0] for p in pairs)
            traced = statistics.median(p[1] for p in pairs)
            context["passes"] = 2 * len(pairs)
            context["absent"] = absent_names(tracer)
            metrics = per_layer([p[2] for p in pairs], loop.refusals / (2 * len(pairs)),
                                (traced - untraced) / untraced)
            units = per_layer_units()
    except Exception:  # any unexpected outcome is a wrong result, not a crash
        traceback.print_exc()
        return context, {"correct": False, "attempted": loop.attempted, "failed": 1, "metrics": {}}
    context["jobs"] = loop.records
    result = {
        "correct": True,
        "attempted": loop.attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return context, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="soficert benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "soficert" / "__init__.py").is_file():
        print(f"error: no soficert sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        context, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({"context": context}, sort_keys=True))
    if not result["correct"]:
        print(json.dumps(result))
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
