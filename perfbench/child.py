"""One measured step of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py setup  <result.json> <command> <config>
    python3 perfbench/child.py passes <result.json> <command> <out> <workers> <seconds> <min> <outputs> <config>...
    python3 perfbench/child.py traced <result.json> <command> <config> <out> <workers> <spans.json>

``setup`` times ``import evidem.cli`` plus ``parse_config``.  ``passes``
makes one untimed warm-up call of ``cmd_<command>`` on the first config,
then timed, untraced calls that cycle through the configs, for at least
``<seconds>``, one cycle and ``<min>`` calls; each call is bracketed by the
fixed reference work of ``calibrate.py``.  The first call on each config
writes to ``<out>/c<i>``; every later one to its own directory, which is
compared byte for byte with that config's first ``<outputs>``
(comma-separated file names) and removed.
``traced`` makes the same call with every public function that
``evidem.cli`` and ``evidem.simulation`` look up wrapped in a span, then
derives the per-layer metrics and checks every fit against the independent
oracle in ``reference.py``.  The program's source directory must be on
PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

# Label regimes with their own fit metrics.
METHODS = ("uncertain", "noisy", "unknown")


def _rusage_cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _blas_info() -> dict:
    import ctypes
    import glob
    import os

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def _overrides(out: str, workers: str) -> dict:
    return {"out": out, "workers": int(workers)}


def run_setup(command: str, config: str) -> dict:
    t0 = time.perf_counter()
    import evidem.cli
    from evidem.config import parse_config

    parse_config(config, command=command)
    return {"setup_s": time.perf_counter() - t0}


def _same_files(a: Path, b: Path, names: list[str]) -> bool:
    for name in names:
        fa, fb = a / name, b / name
        if fa.is_file() != fb.is_file() or (fa.is_file() and fa.read_bytes() != fb.read_bytes()):
            return False
    return True


def run_passes(command: str, out: str, workers: str, seconds: str, min_passes: str, outputs: str,
               *configs: str) -> dict:
    import dataclasses
    import gc
    import shutil

    import numpy as np

    import evidem.cli as cli
    from calibrate import Calibration

    root = Path(out)
    cfgs = [cli.parse_config(c, _overrides(str(root / f"c{i}"), workers), command=command)
            for i, c in enumerate(configs)]
    cmd = getattr(cli, f"cmd_{command}")
    names = [name for name in outputs.split(",") if name]
    enough = max(len(cfgs), int(min_passes))
    passes = []
    with Calibration(int(workers)) as calibration:
        before = calibration.measure()
        start = None
        # pass 0 is a warm-up on the first config; timed passes follow, cycling through the configs
        while len(passes) <= enough or time.perf_counter() - start < float(seconds):
            k = len(passes)
            i = k % len(cfgs)
            first = k < len(cfgs)
            cfg = cfgs[i] if first else dataclasses.replace(cfgs[i], out=root / f"p{k}")
            if k == 1:
                start = time.perf_counter()
            gc.collect()  # garbage of the previous pass is not collected inside this one
            cpu0 = _rusage_cpu_s()
            t0 = time.perf_counter()
            code = cmd(cfg)
            wall = time.perf_counter() - t0
            cpu = _rusage_cpu_s() - cpu0
            after = calibration.measure()
            same = True
            if not first:
                same = _same_files(cfg.out, cfgs[i].out, names)
                shutil.rmtree(cfg.out, ignore_errors=True)
            passes.append({"config": i, "warmup": k == 0, "exit_code": code, "wall_s": wall, "cpu_s": cpu,
                           "ref_wall_s": (before[0] + after[0]) / 2, "ref_cpu_s": (before[1] + after[1]) / 2,
                           "same_as_first": same})
            before = after
        peak_rss_mb = _peak_rss_mb()  # before the calibration pool is reaped
    return {
        "firsts": [str(c.out) for c in cfgs],
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        **_blas_info(),
    }


def _classify(pl) -> str:
    """Label regime of a plausibility matrix, for fits made outside a replication."""
    import numpy as np

    if np.all(pl == 1.0):
        return "unknown"
    if np.all((pl == 0.0) | (pl == 1.0)):
        return "noisy"
    return "uncertain"


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_traced(command: str, config: str, out: str, workers: str, spans_path: str) -> dict:
    import numpy as np

    import evidem.cli as cli
    import evidem.simulation as simulation
    from evidem.estimator import EstimationError

    from calibrate import Calibration
    from reference import check_fit
    from tracer import Tracer

    fits: list[dict] = []

    def replication_call(span, args, kwargs):
        method = args[1] if len(args) > 1 else kwargs["method"]
        span.attrs["method"] = getattr(method, "value", method)

    def fit_return(span, args, kwargs, result, exc):
        ds = args[0]
        init = args[1] if len(args) > 1 else kwargs["init"]
        method = None
        parent = span.parent
        while parent is not None and method is None:
            method = parent.attrs.get("method")
            parent = parent.parent
        method = method or _classify(ds.pl)
        span.attrs["method"] = method
        if exc is not None:
            span.attrs["failed"] = int(isinstance(exc, EstimationError))
            return
        est, trace = result
        span.attrs["iters"] = trace.iterations_used
        span.attrs["capped"] = int(not trace.converged)
        fits.append({
            "method": method,
            "data": (ds.data.y_star, ds.data.observed, ds.pl),
            "init": (init.lambdas, init.xis),
            "est": (est.lambdas, est.xis),
            "converged": trace.converged,
            "tol": (args[2] if len(args) > 2 else kwargs["config"]).tol,
        })

    def count(attr, fn):
        def hook(span, args, kwargs, result, exc):
            if exc is None:
                span.attrs[attr] = fn(args, result)
        return hook

    tracer = Tracer(
        on_call={"simulation.run_replication": replication_call},
        on_return={
            "estimator.fit": fit_return,
            "censoring.run_life_test": count("units", lambda a, r: int(r.n)),
            "censoring.read_dataset_csv": count("rows", lambda a, r: int(r.n)),
            "censoring.write_dataset_csv": count("rows", lambda a, r: int(a[0].n)),
        },
    )
    tracer.wrap_public(cli, "evidem", extra=("SoftLabeledDataset",))
    tracer.wrap_public(simulation, "evidem", extra=("SoftLabeledDataset",))
    try:
        cfg = cli.parse_config(config, _overrides(out, workers), command=command)
        cmd = getattr(cli, f"cmd_{command}")
        with Calibration(1) as calibration:
            before = calibration.measure()
            t0 = time.perf_counter()
            code = cmd(cfg)
            wall = time.perf_counter() - t0
            after = calibration.measure()
    finally:
        tracer.uninstall()

    problems = []
    for k, rec in enumerate(fits):
        y, observed, pl = (np.asarray(a) for a in rec["data"])
        compare = rec["method"] in ("uncertain", "noisy")
        for problem in check_fit(y, observed, pl, rec["init"], rec["est"], rec["converged"], rec["tol"], compare):
            problems.append(f"fit {k} ({rec['method']}): {problem}")

    Path(spans_path).write_text(json.dumps(tracer.dump()))
    return {
        "exit_code": code,
        "wall_s": wall,
        "ref_wall_s": (before[0] + after[0]) / 2,
        "metrics": layer_metrics(tracer),
        "fits_checked": len(fits),
        "fit_problems": problems,
    }


def layer_metrics(tracer) -> dict:
    """Per-layer metrics from the spans: self times in ms, counts as counts."""
    self_ms = {name: s * 1e3 for name, s in tracer.self_seconds().items()}
    spans = tracer.spans

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in named(name))

    fit_spans = named("estimator.fit")
    ok_fits = [s for s in fit_spans if "iters" in s.attrs]
    iters = total("estimator.fit", "iters")
    m = {
        "estimator.fit.calls": len(fit_spans),
        "estimator.fit.iters": iters,
        "estimator.fit.us_per_iter": sum(s.self_s for s in ok_fits) * 1e6 / iters if iters else 0.0,
        "estimator.fit.capped": total("estimator.fit", "capped"),
        "estimator.fit.failed": total("estimator.fit", "failed"),
    }
    for method in METHODS:
        mine = [s for s in fit_spans if s.attrs.get("method") == method]
        m[f"estimator.fit.{method}.ms"] = sum(s.self_s for s in mine) * 1e3
        m[f"estimator.fit.{method}.iters"] = sum(s.attrs.get("iters", 0) for s in mine)
    for layer in ("estimator.fit", "estimator.SoftLabeledDataset", "estimator.make_soft_labels",
                  "estimator.read_soft_labels_csv", "estimator.write_soft_labels_csv", "censoring.run_life_test",
                  "censoring.read_dataset_csv", "censoring.write_dataset_csv", "rayleigh.sample_labeled",
                  "simulation.draw_error_probs", "simulation.corrupt_labels", "simulation.align_to_truth",
                  "simulation.aggregate_report", "config.parse_config", "figures.write_line_chart"):
        m[f"{layer}.ms"] = self_ms.get(layer, 0.0)
    m["censoring.run_life_test.units"] = total("censoring.run_life_test", "units")
    m["censoring.read_dataset_csv.rows"] = total("censoring.read_dataset_csv", "rows")
    m["censoring.write_dataset_csv.rows"] = total("censoring.write_dataset_csv", "rows")
    m["rayleigh.sample_labeled.calls"] = len(named("rayleigh.sample_labeled"))
    replication_ms = [s.duration_s * 1e3 for s in named("simulation.run_replication")]
    m["simulation.run_replication.ms_p50"] = _percentile(replication_ms, 0.5)
    m["simulation.run_replication.ms_p90"] = _percentile(replication_ms, 0.9)
    m["simulation.write_csv.ms"] = sum(
        self_ms.get(f"simulation.{w}", 0.0) for w in ("write_results_csv", "write_summary_csv", "write_figure_csv")
    )
    m["cli.self.ms"] = sum(ms for name, ms in self_ms.items() if name.startswith("cli."))
    return m


def main(argv: list[str]) -> int:
    mode, result_path, *rest = argv
    steps = {"setup": run_setup, "passes": run_passes, "traced": run_traced}
    if mode not in steps:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(result_path).write_text(json.dumps(steps[mode](*rest)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
