"""evidem benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload sweep-rho --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  Inputs come from ``--seed`` and are written
under ``.perfbench_work/`` before timing: one config, or for ``sweep-rho``
several, whose master seeds come from ``--seed``.  Each measured step runs in
a fresh interpreter (see ``child.py``):

1. SETUP_SAMPLES timed set-ups, half before and half after step 2: ``import
   evidem.cli`` plus ``parse_config``;
2. in one interpreter, an untimed warm-up call of ``cmd_<command>``, then
   timed calls that cycle through the configs, until ``--seconds`` have
   passed, every config ran and at least MIN_PASSES calls were timed; each
   call is bracketed by the fixed reference work of ``calibrate.py``;
3. with ``--trace 1``, for ``sweep-rho``, one plain single-worker call on the
   first config;
4. one traced call on the first config, single-worker, whose spans give the
   per-layer metrics and whose fits are checked against the independent
   oracle in ``reference.py``.

Every call's outputs are checked, and must be byte-identical to those of the
first call on the same config, whatever the worker count or tracing.  The
last stdout line is the JSON result: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics.

End-to-end metrics: ``setup_s`` is the median of its samples.  ``wall_rel``
and ``cpu_rel`` are a call's wall and CPU time (CPU including reaped pool
workers) divided by those of the reference work around it, as a median over
each config's calls, averaged over the configs.  They are times in units of
the reference work, not seconds, because the shared host's speed swings by up
to half within tens of seconds, which moves every timing in seconds, the
median and even the fastest of a run's calls, while the ratio holds.
``peak_rss_mb`` is the largest resident set of the timing interpreter or its
pool workers.  The lines before the result give the environment and a report
with the raw ``wall_s`` and ``cpu_s`` (same averaging), every call's times,
``failed_frac`` and ``capped_frac`` and their bases.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS, Outcome  # noqa: E402

# Passes repeat for at least --seconds and MIN_PASSES times.
SETUP_SAMPLES = 7
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150  # on top of --seconds for the passes step

END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MB"}

# Per-layer metrics, from the traced pass unless noted.  "<layer>.ms" is the
# layer's self time: span durations minus the time of spans nested in them.
PER_LAYER_UNITS = {
    "estimator.fit.ms": "ms",
    "estimator.fit.calls": "count",
    "estimator.fit.iters": "count",
    "estimator.fit.us_per_iter": "us",
    "estimator.fit.uncertain.ms": "ms",
    "estimator.fit.noisy.ms": "ms",
    "estimator.fit.unknown.ms": "ms",
    "estimator.fit.uncertain.iters": "count",
    "estimator.fit.noisy.iters": "count",
    "estimator.fit.unknown.iters": "count",
    "estimator.fit.capped": "count",
    "estimator.fit.failed": "count",
    "estimator.SoftLabeledDataset.ms": "ms",
    "estimator.make_soft_labels.ms": "ms",
    "estimator.read_soft_labels_csv.ms": "ms",
    "estimator.write_soft_labels_csv.ms": "ms",
    "censoring.run_life_test.ms": "ms",
    "censoring.run_life_test.units": "count",
    "censoring.read_dataset_csv.ms": "ms",
    "censoring.read_dataset_csv.rows": "count",
    "censoring.write_dataset_csv.ms": "ms",
    "censoring.write_dataset_csv.rows": "count",
    "rayleigh.sample_labeled.ms": "ms",
    "rayleigh.sample_labeled.calls": "count",
    "simulation.run_replication.ms_p50": "ms",
    "simulation.run_replication.ms_p90": "ms",
    "simulation.draw_error_probs.ms": "ms",
    "simulation.corrupt_labels.ms": "ms",
    "simulation.align_to_truth.ms": "ms",
    "simulation.aggregate_report.ms": "ms",
    "simulation.write_csv.ms": "ms",
    # plain single-worker call on the first config, and its time relative to the 2-worker call's
    "simulation.run_sweep.w1_s": "s",
    "simulation.run_sweep.speedup_w2": "ratio",
    "config.parse_config.ms": "ms",
    "cli.self.ms": "ms",
    "figures.write_line_chart.ms": "ms",
    # (traced - untraced time at the same worker count) / untraced time, both relative to the reference
    # work; the traced call is a first call, the untraced ones are warm
    "trace.overhead_frac": "ratio",
    # failed operations / attempted and capped fits / fits, over the whole run
    "failed_frac": "ratio",
    "capped_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"  # the same string hashing, and so dict layout, in every step
    # One BLAS thread everywhere, so workers x BLAS threads <= nproc for any
    # pool size: the kernels are (n x p) products with p = 3, which BLAS
    # threading does not speed up, and idle spinning threads would inflate cpu_s.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(env: dict, result_path: Path, mode: str, *args: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child.py step in a fresh interpreter and its own session; return its result."""
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), mode, str(result_path), *args],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} step timed out after {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} step failed (exit {proc.returncode}):\n{err.decode(errors='replace')[-2000:]}")
    return json.loads(result_path.read_text())


def cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(sample: dict) -> dict:
    return {
        "python": sample.get("python"),
        "numpy": sample.get("numpy"),
        "blas": sample.get("blas"),
        "blas_version": sample.get("blas_version"),
        "blas_threads": sample.get("blas_threads"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(SIZES), help="input size (toy: self-check only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "evidem" / "__init__.py").is_file():
        print(f"benchmark: no evidem sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    work = root / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        result, env_block, report = measure(workload, args, env, work)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": env_block}))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def per_config_median(passes: list[dict], value) -> float:
    """Mean over configs of the median over that config's timed passes of ``value(pass)``."""
    by_config: dict[int, list[float]] = {}
    for p in passes:
        by_config.setdefault(p["config"], []).append(value(p))
    return statistics.fmean(statistics.median(v) for v in by_config.values())


def measure(workload, args, env: dict, work: Path):
    configs = [str(c) for c in workload.make_inputs(work, args.seed, SIZES[args.size], env)]
    command = workload.command

    # set-up samples before and after the passes, so that their median spans the run
    def setup_samples(count: int) -> list[float]:
        return [run_child(env, work / "setup.json", "setup", command, configs[0])["setup_s"] for _ in range(count)]

    setup_s = setup_samples(SETUP_SAMPLES // 2)
    plain = run_child(env, work / "plain.json", "passes", command, str(work / "plain"), str(workload.workers),
                      str(args.seconds), str(MIN_PASSES), ",".join(workload.outputs), *configs,
                      timeout=args.seconds + CHILD_TIMEOUT_S)
    setup_s += setup_samples(SETUP_SAMPLES - len(setup_s))
    timed = [p for p in plain["passes"] if not p["warmup"]]
    firsts = [Path(d) for d in plain["firsts"]]
    # (output directory, exit code, directory its outputs must equal)
    calls = [(firsts[p["config"]], p["exit_code"], None) for p in plain["passes"][:len(firsts)]]
    repeats = plain["passes"][len(firsts):]

    w1 = None
    if args.trace and workload.workers > 1:
        w1 = run_child(env, work / "w1.json", "passes", command, str(work / "w1"), "1", "0", "1",
                       ",".join(workload.outputs), configs[0])
        calls.append((Path(w1["firsts"][0]), w1["passes"][0]["exit_code"], firsts[0]))
        repeats += w1["passes"][1:]

    out = work / "traced"
    # the spans of the latest traced pass outlive the run's work directory
    spans_path = work.parent / f"last-trace-{workload.name}.json"
    traced = run_child(env, work / "traced.json", "traced", command, configs[0], str(out), "1", str(spans_path))
    calls.append((out, traced["exit_code"], firsts[0]))
    total = check_outputs(workload, calls, repeats, Path(configs[0]), env)
    # every call on the first config that matched the traced outputs repeats the traced fits' problems
    first_calls = sum(p["config"] == 0 for p in plain["passes"]) + (len(w1["passes"]) if w1 else 0) + 1
    total.problems += traced["fit_problems"]
    total.failed = min(total.failed + len(traced["fit_problems"]) * first_calls, total.ops)

    wall = per_config_median(timed, lambda p: p["wall_s"])
    failed_frac = total.failed / total.ops
    capped_frac = total.capped / total.fits if total.fits else 0.0
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "configs": len(configs),
        "timed_passes": len(timed),
        # raw times: mean over configs of the median pass, and every pass
        "wall_s": {"value": wall, "unit": "s"},
        "cpu_s": {"value": per_config_median(timed, lambda p: p["cpu_s"]), "unit": "s"},
        "wall_s_samples": [p["wall_s"] for p in timed],
        "ref_wall_s_samples": [p["ref_wall_s"] for p in timed],
        "setup_s_samples": setup_s,
        "failed_frac": {"value": failed_frac, "unit": "ratio", "base": f"{total.failed} of {total.ops} operations"},
        "capped_frac": {"value": capped_frac, "unit": "ratio", "base": f"{total.capped} of {total.fits} fits"},
        "fits_checked": traced["fits_checked"],
        "problems": total.problems[:20],
        "estimation_errors": total.errors[:20],
    }
    if args.trace:
        metrics = dict(traced["metrics"])
        # single-worker calls on the first config, in units of the single-process reference work
        first_rel = statistics.median(p["wall_s"] / p["ref_wall_s"] for p in timed if p["config"] == 0)
        if w1 is not None:
            (w1_pass,) = [p for p in w1["passes"] if not p["warmup"]]
            base = w1_pass["wall_s"] / w1_pass["ref_wall_s"]
            metrics["simulation.run_sweep.w1_s"] = w1_pass["wall_s"]
            # the 2-worker reference runs in two processes at once; on idle cores it takes as long as one
            metrics["simulation.run_sweep.speedup_w2"] = base / first_rel
        else:
            base = first_rel
            metrics["simulation.run_sweep.w1_s"] = 0.0
            metrics["simulation.run_sweep.speedup_w2"] = 0.0
        metrics["trace.overhead_frac"] = traced["wall_s"] / traced["ref_wall_s"] / base - 1.0
        metrics["failed_frac"] = failed_frac
        metrics["capped_frac"] = capped_frac
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_rel": per_config_median(timed, lambda p: p["wall_s"] / p["ref_wall_s"]),
            "cpu_rel": per_config_median(timed, lambda p: p["cpu_s"] / p["ref_cpu_s"]),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        out_metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": not total.problems,
        "attempted": total.ops,
        "failed": total.failed,
        "metrics": out_metrics,
    }
    return result, environment(plain), report


def check_outputs(workload, calls, repeats, config: Path, env: dict) -> Outcome:
    """Check the outputs of every call and repeated pass.

    ``calls`` are (output directory, exit code, directory whose outputs
    they must equal, or None); the first is the first config's first pass.
    ``repeats`` are the later passes, whose outputs ``child.py`` compared
    with their config's first pass before removing them.
    """
    total = Outcome()

    def add(outcome: Outcome) -> None:
        total.ops += outcome.ops
        total.failed += min(outcome.failed, outcome.ops)
        total.fits += outcome.fits
        total.capped += outcome.capped
        total.problems += outcome.problems
        total.errors += outcome.errors

    firsts = {}  # config index -> (outcome, exit code) of its first pass
    for k, (out, exit_code, like) in enumerate(calls):
        outcome = workload.check(out, exit_code)
        if like is None:
            firsts[k] = (outcome, exit_code)
        for name in workload.outputs if like is not None else ():
            if (out / name).is_file() and (like / name).is_file() \
                    and (out / name).read_bytes() != (like / name).read_bytes():
                outcome.fail(f"{out.name}/{name} differs from {like.name}/{name}", ops=max(outcome.ops, 1))
        add(outcome)
    for step in repeats:
        # a pass with its config's first exit code and outputs has that pass's outcome
        first, code = firsts[step["config"]]
        outcome = Outcome(ops=first.ops, failed=first.failed, fits=first.fits, capped=first.capped)
        if step["exit_code"] != code or not step["same_as_first"]:
            outcome.fail(f"a pass on config {step['config']}: exit code {step['exit_code']} "
                         f"or outputs differ from its first pass", ops=max(outcome.ops, 1))
        add(outcome)
    once = workload.check_once(calls[0][0], config, env)
    total.problems += once
    total.failed += len(once)
    return total


if __name__ == "__main__":
    sys.exit(main())
