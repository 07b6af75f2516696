#!/usr/bin/env python3
"""The repository's benchmark: five workloads through a ``QueryService``
closed loop, every answer checked against a base-store oracle.

    python3 bench/run.py --seed N             every workload, both runs each
    python3 bench/run.py --seed N --quick     the same code path as a smoke
    python3 bench/run.py --verify-only        the correctness oracle alone
    python3 bench/run.py --check-repeat       two interleaved sets, gaps
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                              one run, one JSON line (the
                                              BENCHMARK.json contract)

See bench/README.md.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected_seed0.json"
MANIFEST = ROOT / "BENCHMARK.json"


def import_program() -> None:
    """Put the program under test (``src/repro``) and ``bench/`` on the
    path; ``REPRO_*`` knobs of the caller's shell must not leak in."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: nothing to measure, {ROOT / 'src' / 'repro'} is missing")
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]


# -- one run of one workload (the contract) ---------------------------------


def run_contract(args) -> int:
    """One run of one workload; the last stdout line is the result: exactly
    ``correct``, ``attempted``, ``failed`` and ``metrics`` (``--detail``,
    which only this script passes, adds the sample counts)."""
    import loop
    from metrics import END_TO_END, PER_LAYER, UNITS
    from workloads import SPECS

    spec = SPECS[args.workload]
    if args.trace:
        import layers

        outcome = layers.run_traced(spec, args.seed, args.seconds, OUT)
    else:
        window, warm, setup_seconds = loop.run_untraced(
            spec, args.seed, args.seconds, args.setups or loop.SETUP_REPEATS
        )
        outcome = {
            "attempted": window.attempted,
            "failed": window.failed,
            "resolution": warm.view_resolution_ratio(),
            "metrics": loop.end_to_end(window, setup_seconds),
            "samples": loop.sample_counts(window, setup_seconds),
        }
    table = PER_LAYER if args.trace else END_TO_END
    if set(outcome["metrics"]) != {row[0] for row in table}:
        sys.exit("bench: the metrics reported are not those of bench/metrics.py")
    line = {
        "correct": (
            outcome["failed"] == 0
            and outcome["resolution"] >= spec.min_view_resolution
        ),
        "attempted": max(1, outcome["attempted"]),
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in outcome["metrics"].items()
        },
    }
    if args.detail:
        line["samples"] = outcome.get("samples", {})
    print(json.dumps(line))
    return 0


def run_child(job: tuple) -> dict:
    """A contract run in a fresh interpreter; returns its result object."""
    workload, seed, seconds, trace, setups = job
    command = [sys.executable, str(BENCH / "run.py"), "--detail"]
    command += ["--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    command += ["--setups", str(setups)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench: {' '.join(command)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- every workload, both runs ----------------------------------------------

#: layer separation (ISSUE 11 acceptance): (workload, metric, relation, limit)
SEPARATION = [
    ("plan_cold", "uload.planning_share", ">=", 0.60),
    ("view_warm", "plan_cache.hit_ratio", ">=", 0.99),
    ("view_warm", "rewrite.view_resolution_ratio", ">=", 0.80),
    ("view_warm", "embedding.share_of_execute", "<=", 0.10),
    ("base_warm", "embedding.share_of_execute", ">=", 0.50),
]


def run_full(args) -> int:
    from loop import SETUP_REPEATS
    from metrics import BOUNDS, FULL_SECONDS, QUICK_SECONDS, WORKLOADS

    seconds = args.seconds or (QUICK_SECONDS if args.quick else FULL_SECONDS)
    setups = 1 if args.quick else SETUP_REPEATS
    jobs = [
        (workload, args.seed, seconds, trace, setups)
        for workload in WORKLOADS
        for trace in (0, 1)
    ]
    # nproc is 2: the smoke run keeps both cores busy, the real run measures
    # one workload at a time
    with ThreadPoolExecutor(max_workers=2 if args.quick else 1) as pool:
        results = list(pool.map(run_child, jobs))

    summary = {
        "sha": git_sha(),
        "seed": args.seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    problems = []
    for index, workload in enumerate(WORKLOADS):
        plain, traced = results[2 * index], results[2 * index + 1]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        print(
            f"== {workload}: {attempted} attempted, {failed} failed, "
            f"failed_fraction {failed / attempted:.4f}"
        )
        print("  end to end (untraced run)")
        for name, metric in plain["metrics"].items():
            metric["samples"] = plain["samples"][name]
            metric["bound"] = BOUNDS[name]
            print(
                f"    {name:38s} {metric['value']:14.4f} {metric['unit']:6s}"
                f" n={metric['samples']:<6d} bound {metric['bound']:.0%}"
            )
        print("  per layer (traced run)")
        for name, metric in traced["metrics"].items():
            print(f"    {name:38s} {metric['value']:14.4f} {metric['unit']}")
        if not (plain["correct"] and traced["correct"]):
            problems.append(f"{workload}: answers diverged from the oracle")
        summary["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "failed_fraction": failed / attempted,
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
    for workload, name, relation, limit in SEPARATION:
        value = summary["workloads"][workload]["per_layer"][name]["value"]
        holds = value >= limit if relation == ">=" else value <= limit
        print(
            f"layer separation: {workload} {name} = {value:.3f} "
            f"(wants {relation} {limit}) {'ok' if holds else 'FAIL'}"
        )
        if not holds:
            problems.append(f"{workload}: {name} {value:.3f} not {relation} {limit}")
    OUT.mkdir(exist_ok=True)
    target = OUT / f"BENCH_{summary['sha']}.json"
    target.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {target.relative_to(ROOT)}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- repeatability ----------------------------------------------------------


def check_repeat(args) -> int:
    """Two interleaved sets (A B C D E A B C D E) of untraced runs of the
    same code and seed; every end-to-end metric's two values must agree
    within that metric's bound."""
    from loop import SETUP_REPEATS
    from metrics import BOUNDS, RUN_SECONDS, WORKLOADS

    seconds = args.seconds or RUN_SECONDS
    jobs = [(w, args.seed, seconds, 0, SETUP_REPEATS) for w in WORKLOADS] * 2
    results = [run_child(job) for job in jobs]
    worst = 0
    for index, workload in enumerate(WORKLOADS):
        first, second = results[index], results[index + len(WORKLOADS)]
        print(f"== {workload}")
        for name, bound in BOUNDS.items():
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            gap = abs(a - b) / min(a, b)
            verdict = "ok" if gap <= bound else "FAIL"
            worst += gap > bound
            print(
                f"    {name:20s} {a:12.4f} {b:12.4f}  gap {gap:6.2%}"
                f"  bound {bound:.0%}  {verdict}"
            )
    return 1 if worst else 0


# -- the correctness oracle alone -------------------------------------------


def verify_only(args) -> int:
    """Base-store reference answers against the committed expectations
    (seed 0), the service's answers against the reference (one cold and one
    warm pass), and ``BENCHMARK.json`` against the metric table."""
    from loop import warm_up
    from metrics import WORKLOADS, manifest
    from workloads import SPECS, build

    problems = []
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    observed = {}
    for workload in WORKLOADS:
        spec = SPECS[workload]
        fixture = build(spec, args.seed)
        try:
            warm = warm_up(fixture, random.Random(f"{workload}:{args.seed}"))
        finally:
            fixture.close()
        observed[workload] = fixture.reference
        if warm.failed:
            problems.append(f"{workload}: {warm.failed} answers differ from the oracle")
        if warm.view_resolution_ratio() < spec.min_view_resolution:
            problems.append(f"{workload}: fell back to the base store")
        if args.seed == 0 and not args.write_expected:
            for qid, answer in fixture.reference.items():
                if expected.get(workload, {}).get(qid) != answer:
                    problems.append(f"{workload}/{qid}: base-store answer changed")
        print(f"{workload}: {warm.attempted} answers checked, {warm.failed} differ")
    if args.write_expected:
        EXPECTED.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    if MANIFEST.exists() and json.loads(MANIFEST.read_text()) != manifest():
        problems.append("BENCHMARK.json does not mirror bench/metrics.py")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run this workload only (contract mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--verify-only", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json")
    parser.add_argument("--setups", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    from metrics import RUN_SECONDS, WORKLOADS, manifest

    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        if args.seconds is None:
            args.seconds = RUN_SECONDS
        return run_contract(args)
    if args.verify_only:
        if args.write_expected and args.seed != 0:
            parser.error("the committed expectations are those of seed 0")
        return verify_only(args)
    if args.check_repeat:
        return check_repeat(args)
    return run_full(args)


if __name__ == "__main__":
    sys.exit(main())
