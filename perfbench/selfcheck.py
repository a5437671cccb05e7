"""Self-check of the benchmark at toy size.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  For every workload in
BENCHMARK.json and both trace settings, runs ``run.py --size toy`` and
asserts that the result line has exactly the contract's keys, that every
metric BENCHMARK.json names is emitted with its unit and a numeric value,
that every correctness check passed, and that the report line carries the
raw ``wall_s`` and ``cpu_s``, and ``failed_frac`` and ``capped_frac`` with
their bases, all with units.  Finally runs the
benchmark in a directory holding only BENCHMARK.json and the benchmark,
where it must fail without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--size", "toy"], ROOT)
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    environment = json.loads(lines[-3])["environment"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {report['problems']}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, f"{label}: metric names differ from BENCHMARK.json"
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']!r}, want {m['unit']!r}"
        assert isinstance(got["value"], numbers.Real), f"{label}: {m['name']} value {got['value']!r}"
    for name in ("wall_s", "cpu_s", "failed_frac", "capped_frac"):
        assert isinstance(report[name]["value"], float) and report[name]["unit"], f"{label}: report {name}"
    for name in ("failed_frac", "capped_frac"):
        assert report[name]["base"], f"{label}: report {name} has no base"
    for key in ("python", "numpy", "blas_version", "blas_threads", "platform", "nproc", "cache"):
        assert environment.get(key) is not None, f"{label}: environment lacks {key}"
    print(f"ok  {label}: {len(wanted)} metrics, {result['attempted']} operations checked")


def check_without_sources(spec: dict) -> None:
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = run([*spec["command"][1:], "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        assert proc.returncode != 0, "benchmark succeeded without the program's sources"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program's sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without sources: fails and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, workload["name"], trace)
    check_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
