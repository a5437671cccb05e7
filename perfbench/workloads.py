"""The three benchmark workloads: their generated inputs and output checks.

All three use the paper's p = 3 truth, lambda = (1/3, 1/3, 1/3) and
xi = (4, 0.5, 0.8).  Inputs depend only on the workload seed and are
written before anything is timed; the program sees nothing but these
files.  Checks read the program's output files and never its internals.

- ``sweep-rho``: ``evidem sweep`` on the figure-1 grid (n = 500, 40 %
  conventional censoring, rho in {0, 0.1, ..., 0.5}, all three methods,
  truth-offset start, tol 1e-8, max_iters 1000) with 2 workers, the CLI
  default on a 2-core machine; 3 replications per cell, at 8 master seeds
  drawn from the workload seed.  How many iterations a fit takes varies a
  lot (UNKNOWN fits run 200 to 1000), so one sweep's work varies by a sixth
  between seeds; a run cycles through the 8 sweeps, 432 fits in all.  The study the paper exists for; almost all
  of its time is the E2M kernel at small n (UNKNOWN fits dominate), plus
  the worker pool's load balance.  Censored rows share y* and plausibility
  rows repeat under UNKNOWN and NOISY labels.
- ``fit-large``: ``evidem fit`` of one 50 000-unit dataset with 40 %
  censoring and UNCERTAIN labels (rho = 0.1), written by ``evidem
  generate`` at set-up.  The practitioner path: CSV ingest plus a large-n
  kernel.  Continuous plausibility rows; no pool, no life test.
- ``generate-progressive``: ``evidem generate`` with a progressive plan,
  n = 32 000 with one removal after each of J = 16 000 failures, rho = 0.1.
  The O(n J) life-test replay, the CSV writers, and a costly
  ``parse_config`` of the 16 000-entry plan.  The estimator does nothing.
"""

from __future__ import annotations

import csv
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

TRUTH = {"lambdas": [1.0 / 3.0] * 3, "xis": [4.0, 0.5, 0.8]}
RHO_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
FIT = {"tol": 1.0e-8, "max_iters": 1000}

# Input sizes.  "toy" is for the benchmark's own self-check only.
SIZES = {
    "full": {"sweep_n": 500, "sweep_reps": 3, "sweep_seeds": 8, "fit_n": 50_000, "prog_J": 16_000},
    "toy": {"sweep_n": 150, "sweep_reps": 1, "sweep_seeds": 2, "fit_n": 2_000, "prog_J": 200},
}


@dataclass
class Outcome:
    """What command outputs show: operations, failed operations, capped fits."""

    ops: int = 0
    failed: int = 0
    fits: int = 0
    capped: int = 0
    problems: list[str] = field(default_factory=list)  # failed correctness checks
    errors: list[str] = field(default_factory=list)  # failures the program itself recorded

    def fail(self, message: str, ops: int = 1, check: bool = True) -> None:
        (self.problems if check else self.errors).append(message)
        self.failed += ops


def _write_yaml(path: Path, payload: dict) -> Path:
    path.write_text(yaml.safe_dump(payload, sort_keys=False))
    return path


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _on_simplex(lambdas) -> bool:
    return all(v >= 0.0 for v in lambdas) and abs(sum(lambdas) - 1.0) <= 1e-9


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    command = ""
    workers = 1
    outputs: tuple[str, ...] = ()

    def make_inputs(self, work: Path, seed: int, size: dict, env: dict) -> list[Path]:
        """Write the inputs for ``seed`` under ``work`` and return the config paths.

        A run cycles through the configs; the first is the one traced."""
        raise NotImplementedError

    def check(self, out: Path, exit_code: int) -> Outcome:
        """Check one call's output directory."""
        raise NotImplementedError

    def check_once(self, out: Path, config: Path, env: dict) -> list[str]:
        """Further checks that need running only on one output directory."""
        return []


class SweepRho(Workload):
    name = "sweep-rho"
    command = "sweep"
    workers = 2
    outputs = ("results.csv",)

    def make_inputs(self, work, seed, size, env):
        master_seeds = np.random.default_rng(seed).integers(0, 2**31, size["sweep_seeds"])
        return [self._config(work / f"sweep{k}.yaml", int(s), size) for k, s in enumerate(master_seeds)]

    def _config(self, path, seed, size):
        return _write_yaml(path, {
            "seed": seed,
            "model": TRUTH,
            "scheme": {"n": size["sweep_n"], "censor_frac": 0.4},
            "corruption": {"rho": 0.0, "sd": 0.2},
            "methods": ["uncertain", "noisy", "unknown"],
            "reps": size["sweep_reps"],
            "workers": self.workers,
            "fit": {**FIT, "init": "truth-offset"},
            "sweep": {"variable": "rho", "grid": RHO_GRID},
        })

    def check(self, out, exit_code):
        result = Outcome()
        path = out / "results.csv"
        if not path.is_file():
            result.fail(f"{out.name}: no results.csv (exit {exit_code})")
            return result
        rows = _read_rows(path)
        result.ops = len(rows)
        if exit_code != 0:
            result.fail(f"{out.name}: exit code {exit_code}", ops=len(rows))
            return result
        for k, row in enumerate(rows):
            if row["failed"] == "true":
                result.fail(f"{out.name} row {k}: {row['error']}", check=False)
                continue
            result.fits += 1
            lambdas = [float(row[f"lambda_{z}"]) for z in (1, 2, 3)]
            xis = [float(row[f"xi_{z}"]) for z in (1, 2, 3)]
            if not (_finite(lambdas + xis + [float(row["gll"])]) and _on_simplex(lambdas)):
                result.fail(f"{out.name} row {k}: non-finite or off-simplex estimate")
            if row["converged"] != "true":
                result.capped += 1
        return result


class FitLarge(Workload):
    name = "fit-large"
    command = "fit"
    outputs = ("estimate.csv", "trace.csv")

    def make_inputs(self, work, seed, size, env):
        data_dir = work / "dataset"
        gen = _write_yaml(work / "generate.yaml", {
            "seed": seed,
            "out": str(data_dir),
            "model": TRUTH,
            "scheme": {"n": size["fit_n"], "censor_frac": 0.4},
            "corruption": {"rho": 0.1, "sd": 0.2},
        })
        subprocess.run([sys.executable, "-m", "evidem.cli", "generate", "--config", str(gen)],
                       env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        return [_write_yaml(work / "fit.yaml", {
            "seed": seed,
            "data": str(data_dir / "data.csv"),
            "labels": str(data_dir / "labels.csv"),
            "fit": FIT,
        })]

    def check(self, out, exit_code):
        result = Outcome(ops=1)
        if exit_code != 0 or not (out / "estimate.csv").is_file():
            result.fail(f"{out.name}: exit code {exit_code}")
            return result
        (estimate,) = _read_rows(out / "estimate.csv")
        trace = _read_rows(out / "trace.csv")
        lambdas = [float(estimate[f"lambda_{z}"]) for z in (1, 2, 3)]
        xis = [float(estimate[f"xi_{z}"]) for z in (1, 2, 3)]
        result.fits = 1
        result.capped = int(estimate["converged"] != "true")
        first, last = float(trace[0]["gll"]), float(trace[-1]["gll"])
        if not (_finite(lambdas + xis) and _on_simplex(lambdas) and all(x > 0 for x in xis)):
            result.fail(f"{out.name}: non-finite or off-simplex estimate")
        elif not last >= first:
            result.fail(f"{out.name}: final log-likelihood {last!r} below initial {first!r}")
        return result


class GenerateProgressive(Workload):
    name = "generate-progressive"
    command = "generate"
    outputs = ("data.csv", "labels.csv")

    def make_inputs(self, work, seed, size, env):
        J = size["prog_J"]
        return [_write_yaml(work / "generate.yaml", {
            "seed": seed,
            "model": TRUTH,
            "scheme": {"n": 2 * J, "R": [1] * J},
            "corruption": {"rho": 0.1, "sd": 0.2},
        })]

    def check(self, out, exit_code):
        result = Outcome(ops=1)
        if exit_code != 0:
            result.fail(f"{out.name}: exit code {exit_code}")
        return result

    def check_once(self, out, config, env):
        """data.csv round-trips through read_dataset_csv, and its records follow the plan."""
        problems = []
        plan = yaml.safe_load(config.read_text())["scheme"]
        n, removals = plan["n"], plan["R"]
        rows = _read_rows(out / "data.csv")
        observed = [r for r in rows if r["status"] == "observed"]
        if len(rows) != n or len(observed) != len(removals):
            problems.append(f"data.csv has {len(rows)} rows, {len(observed)} observed; plan has n={n}, J={len(removals)}")
            return problems
        if sorted(int(r["item_id"]) for r in rows) != list(range(1, n + 1)):
            problems.append("data.csv item ids are not a permutation of 1..n")
        counts = [0] * len(removals)
        fail_times = [float(r["y_star"]) for r in observed]
        for r in rows:
            if r["status"] == "censored":
                j = int(r["censored_at_failure"])
                counts[j - 1] += 1
                if float(r["y_star"]) != fail_times[j - 1]:
                    problems.append(f"unit {r['item_id']} censored at a time other than failure {j}")
                    break
        if counts != removals:
            problems.append("removal counts in data.csv do not match the plan")
        if any(b < a for a, b in zip(fail_times, fail_times[1:])):
            problems.append("observed failure times are not in order")
        labels = _read_rows(out / "labels.csv")
        if sorted(int(r["item_id"]) for r in labels) != list(range(1, n + 1)):
            problems.append("labels.csv item ids do not match the dataset")
        if not all(0.0 <= float(v) <= 1.0 for r in labels for k, v in r.items() if k != "item_id"):
            problems.append("labels.csv plausibilities outside [0, 1]")
        roundtrip = out / "roundtrip.csv"
        code = ("import sys\nfrom evidem.censoring import read_dataset_csv, write_dataset_csv\n"
                "write_dataset_csv(read_dataset_csv(sys.argv[1]), sys.argv[2])\n")
        proc = subprocess.run([sys.executable, "-c", code, str(out / "data.csv"), str(roundtrip)],
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            problems.append(f"read_dataset_csv failed on data.csv: {proc.stderr[-500:]}")
        elif roundtrip.read_bytes() != (out / "data.csv").read_bytes():
            problems.append("data.csv does not round-trip through read_dataset_csv")
        return problems


WORKLOADS = {w.name: w for w in (SweepRho(), FitLarge(), GenerateProgressive())}
