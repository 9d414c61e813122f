"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Asserts that every metric BENCHMARK.json names is printed, with its unit, by
a short untraced and a short traced run of each workload; that each
workload's checker rejects a deliberately perturbed answer; and that the
benchmark exits with an error, printing no result, when the nodeflow sources
are missing.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(spec):
    for name in sorted(WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--scale", "tiny")
            assert proc.returncode == 0, (name, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, (name, proc.stderr)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(want) ^ set(got))
            print(f"ok   {name} trace {trace}: {len(got)} metrics, {result['attempted']} ops")


def perturbations(nf, name, item, result):
    """Wrong answers derived from a correct one, each of which the workload's
    checker must reject."""
    if name == "wflow-directed":
        half = {i: [(walk, f / 2) for walk, f in entries] for i, entries in result.flows.items()}
        more = {i: [(walk, f + 1) for walk, f in entries] for i, entries in result.flows.items()}
        return [dataclasses.replace(result, flows=half, objective=result.objective / 2),
                dataclasses.replace(result, flows=more,
                                    objective=result.objective + sum(map(len, more.values())))]
    if name == "transform-undirected":
        return [dataclasses.replace(result, objective=result.objective + nf.rational.rat(1, 7)),
                dataclasses.replace(result, objective=result.objective * 2)]
    if name == "centrality-sweep":
        s, t, forced, free = result.pairs[0]
        pairs = [(s, t, forced, free + 1)] + result.pairs[1:]
        return [dataclasses.replace(result, pairs=pairs, denominator=result.denominator + 1),
                dataclasses.replace(result, ratio=(result.ratio or 0) + nf.rational.rat(1, 3))]
    key = "theta" if item["command"] == "sr-lu" else "objective"
    bumped = json.loads(json.dumps(result))
    bumped["fields"][key] = str(Fraction(result["fields"][key]) + Fraction(1, 7))
    lowered = json.loads(json.dumps(result))
    for row in lowered.get("tunnel_flows", ())[:1]:
        row["flow"] = str(Fraction(row["flow"]) / 2)
    return [bumped, lowered]


def check_rejections():
    workdir = os.path.join(run.OUT, f"smoke-{os.getpid()}")
    try:
        for name in sorted(WORKLOADS):
            workload = WORKLOADS[name]
            nf = run.import_nodeflow()
            pool = workload["build"](random.Random(5), nf, workdir, "tiny")
            tried = 0
            for item in pool:
                result = workload["op"](nf, item)
                if workload["objective"](result) in ("0", "0/0"):
                    continue   # halving a zero answer leaves it right
                assert workload["check"](item, result) == [], (name, "correct answer rejected")
                for wrong in perturbations(nf, name, item, result):
                    assert workload["check"](item, wrong), (name, "perturbed answer accepted")
                    tried += 1
            assert tried, (name, "no instance with a nonzero answer")
            print(f"ok   {name}: checker rejected {tried} perturbed answers")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the benchmark must fail cleanly."""
    bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "cli-srte", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        assert proc.returncode != 0, "ran without the nodeflow sources"
        assert '"metrics"' not in proc.stdout, "printed a result without nodeflow"
        print(f"ok   bare directory: exit code {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_rejections()
    check_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
