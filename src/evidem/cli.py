"""Command-line entry point: generate data, fit one dataset, run sweeps.

Exit codes partition outcomes: 0 success, 2 configuration error, 3 fit did
not converge, 4 estimation failed, 5 I/O failure.  A command takes the flags
of the config sections it reads (``config.READS``), and every run writes a
manifest.json echoing their resolved values, enough to reproduce it exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .censoring import dataset_table, draw_experiment, read_dataset_csv, write_table, write_tables
from .config import READS, ConfigError, RunConfig, parse_config
from .estimator import (
    ComponentStarvedError,
    LabelMode,
    SoftLabeledDataset,
    fit_batch,
    make_soft_labels,
    read_soft_labels_csv,
    soft_labels_table,
)
from .figures import Series, write_line_chart
from .simulation import (
    aggregate_report,
    corrupt_labels,
    curve,
    draw_error_probs,
    parameter_names,
    run_sweep,
    start_params,
    substream,
    write_figure_csv,
    write_results_csv,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_DEGENERATE = 4
EXIT_IO = 5


def _integer(text: str) -> int:
    """The type of the integer flags: ``int``, but the error for an invalid
    value of more than 40 characters gives its length instead of the value."""
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 40 else f"<{len(text)} {'digits' if text.isdigit() else 'characters'}>"
        raise argparse.ArgumentTypeError(f"invalid integer value: {shown}") from None


# each override flag once; its dest is the config key it overrides, whose section decides the commands that take it
_FLAGS = {
    "--seed": dict(dest="seed", type=_integer, help="master seed (overrides config)"),
    "--n": dict(dest="scheme.n", type=_integer, help="number of test units"),
    "--censor-frac": dict(dest="scheme.censor_frac", type=float, help="fraction of units censored"),
    "--rho": dict(dest="corruption.rho", type=float, help="mean label error probability"),
    "--reps": dict(dest="reps", type=_integer, help="repetitions per sweep cell"),
    "--method": dict(dest="methods", choices=[m.value for m in LabelMode] + ["all"], help="supervision regime(s)"),
    "--out": dict(dest="out", type=Path, help="output directory"),
    "--workers": dict(dest="workers", type=_integer,
                      help="sweep worker processes; a sweep of at most 2**15 fit records runs in the main one"),
    "--tol": dict(dest="fit.tol", type=float, help="relative log-likelihood stop threshold"),
    "--max-iters": dict(dest="fit.max_iters", type=_integer, help="iteration cap"),
}
_HELP = {"generate": "simulate a censored, label-corrupted dataset", "fit": "fit one dataset with its soft labels",
         "sweep": "run a Monte-Carlo bias sweep"}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: an argument it does not take is a usage error given with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evidem", description=__doc__)
    parser.add_argument("--version", action="version", version=f"evidem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, reads in READS.items():
        command_parser = sub.add_parser(command, help=_HELP[command])
        command_parser.add_argument("--config", type=Path, help="YAML run configuration")
        for flag, options in _FLAGS.items():
            if options["dest"].split(".")[0] in reads:  # shown as its name (--max-iters MAX_ITERS), or its choices
                metavar = None if "choices" in options else flag[2:].replace("-", "_").upper()
                command_parser.add_argument(flag, metavar=metavar, **options)
    return parser


def _write_manifest(cfg: RunConfig, extra: dict | None = None) -> None:
    payload = {"version": __version__, "config": cfg.manifest_dict(), **(extra or {})}
    if "seed" in payload["config"]:
        payload["master_seed"] = cfg.seed
    # json's indent=2 encoder is pure Python: the plan R, up to n ints at depth 3, takes the C encoder and one replace
    scheme = payload["config"].get("scheme") or {"R": []}
    removals, scheme["R"] = json.dumps(scheme["R"])[1:-1].replace(", ", ",\n        "), "\0"
    text = json.dumps(payload, indent=2, sort_keys=True).replace('"\\u0000"', f"[\n        {removals}\n      ]", 1)
    (cfg.out / "manifest.json").write_text(text + "\n")


def cmd_generate(cfg: RunConfig) -> int:
    cfg.out.mkdir(parents=True, exist_ok=True)
    rng, p = substream(cfg.seed), cfg.model.n_components
    ds = draw_experiment(cfg.model, cfg.scheme, rng)
    q = draw_error_probs(cfg.corruption, ds.n, rng)
    pl = make_soft_labels(LabelMode.UNCERTAIN, p, ds.n, corrupt_labels(ds.true_label, q, p, rng), q)
    write_tables([(cfg.out / "data.csv", *dataset_table(ds)),
                  (cfg.out / "labels.csv", *soft_labels_table(pl, ds.item_id))])
    _write_manifest(cfg, {"effective_sd": cfg.corruption.effective_sd})
    print(f"wrote {cfg.out / 'data.csv'} ({cfg.scheme.J} observed, {cfg.scheme.n_censored} censored)")
    return EXIT_OK


def _align_labels(ds_item_ids: np.ndarray, ids: np.ndarray, pl: np.ndarray) -> np.ndarray:
    """The label rows in the dataset's record order; ``pl`` itself if the label file lists the records in it."""
    if np.array_equal(ids, ds_item_ids):
        return pl
    order = np.argsort(ids)
    by_id = ids[order]
    if by_id.shape != ds_item_ids.shape or not np.array_equal(by_id, np.sort(ds_item_ids)):
        raise ValueError("label file item_ids do not match the dataset")
    return pl[order[np.searchsorted(by_id, ds_item_ids)]]


def cmd_fit(cfg: RunConfig) -> int:
    try:
        ds = read_dataset_csv(cfg.data)
        if cfg.labels is not None:
            ids, pl = read_soft_labels_csv(cfg.labels)
            pl = _align_labels(ds.item_id, ids, pl)
        else:
            pl = cfg.soft_labels
        soft = SoftLabeledDataset(ds, pl)
    except FileNotFoundError as exc:
        raise ConfigError(f"input file not found: {exc.filename}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid input data: {exc}") from None
    p = soft.n_components
    if cfg.init != "quantile-spread" and cfg.model.n_components != p:
        raise ConfigError(f"the labels have {p} components but 'model' has {cfg.model.n_components}")
    cfg.out.mkdir(parents=True, exist_ok=True)  # only now, so a configuration error leaves no directory
    (result,), steps = fit_batch([soft], [start_params(cfg.init, ds, p, cfg.model)], cfg.fit_config)
    error = result["error"]
    if error is not None:
        print(f"estimation failed: {error}", file=sys.stderr)
        kind = "starved" if isinstance(error, ComponentStarvedError) else "degenerate"
        _write_manifest(cfg, {"outcome": f"{kind}: {error}"})
        return EXIT_DEGENERATE

    names = parameter_names(p)
    scalars = [name for name in result.dtype.names[2:] if name != "error"]  # fit_dtype's fields after the estimate
    write_table(cfg.out / "estimate.csv", names + scalars, 1,
                [[v] for v in [*result["lambdas"], *result["xis"], *(result[name] for name in scalars)]])
    _, lambdas, xis, gll = (np.concatenate(a) for a in zip(*steps))
    write_table(cfg.out / "trace.csv", ["iteration", "gll"] + names, len(gll),
                [np.arange(len(gll)), gll, *lambdas.T, *xis.T])
    _write_manifest(cfg, {"outcome": "converged" if result["converged"] else "not converged"})
    if not result["converged"]:
        print(f"did not converge within {cfg.fit_config.max_iters} iterations", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    print(f"converged in {result['iterations']} iterations; estimates in {cfg.out / 'estimate.csv'}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    """Run ``cfg.sweep``, which :func:`parse_config` builds and checks, and write its outputs."""
    spec = cfg.sweep
    cfg.out.mkdir(parents=True, exist_ok=True)
    rows = run_sweep(spec, cfg.seed, workers=cfg.workers)
    summary = aggregate_report(spec, rows)
    write_results_csv(spec, rows, cfg.out / "results.csv")
    write_summary_csv(spec, summary, cfg.out / "summary.csv")
    for z in range(spec.true_params.n_components):
        name = f"xi_{z + 1}"
        curves = [curve(summary, method, name) for method in spec.methods]
        write_figure_csv(spec, curves, cfg.out / f"figure_{name}.csv")
        write_line_chart(
            cfg.out / f"figure_{name}.svg",
            curves[-1]["grid_value"],
            [Series(label=m.value, mean=c["mean_rabias"], sd=c["sd_rabias"]) for m, c in zip(spec.methods, curves)],
            title=f"mean absolute relative bias of {name}",
            xlabel=spec.variable,
            ylabel="RABias",
        )
    _write_manifest(cfg, {"effective_sd": [spec.corruptions[gi].effective_sd for gi in spec.experiments[0]]})
    n_failed = int(rows.failed.sum())
    print(f"{len(rows)} rows, {n_failed} failed; outputs in {cfg.out}")
    if n_failed == len(rows):
        print("every replication failed", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


_COMMANDS = {"generate": cmd_generate, "fit": cmd_fit, "sweep": cmd_sweep}


def main(argv=None) -> int:
    overrides = vars(build_parser().parse_args(argv))
    command, path = overrides.pop("command"), overrides.pop("config")
    try:
        cfg = parse_config(path, overrides, command=command)
        return _COMMANDS[command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
