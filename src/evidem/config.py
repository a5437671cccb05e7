"""Run configuration: YAML file plus command-line overrides.

The file vocabulary is shared by all subcommands; unknown keys anywhere are
an error that lists them, and every resolved value is echoed into the run
manifest so a run can be reproduced from its output directory alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import yaml

from .censoring import CensoringScheme, SchemeError, conventional_scheme, scheme_from_censor_frac
from .estimator import E2MConfig, LabelMode
from .rayleigh import MixtureParams
from .simulation import TRUTH_OFFSET

__all__ = ["ConfigError", "RunConfig", "parse_config", "DEFAULTS"]


class ConfigError(ValueError):
    """The run configuration is malformed or violates an invariant."""


DEFAULTS = {
    "seed": 0,
    "out": "out",
    "reps": 20,
    "workers": os.cpu_count() or 1,
    "methods": ["uncertain", "noisy", "unknown"],
    "corruption.sd": 0.2,
    "fit.tol": 1e-8,
    "fit.max_iters": 1000,
}

# key -> True for scalar leaves, or a nested dict for sections
_SCHEMA: dict[str, Any] = {
    "seed": True,
    "out": True,
    "reps": True,
    "workers": True,
    "methods": True,
    "data": True,
    "labels": True,
    "soft_labels": True,
    "model": {"lambdas": True, "xis": True},
    "scheme": {"n": True, "J": True, "R": True, "censor_frac": True},
    "corruption": {"rho": True, "sd": True},
    "fit": {"tol": True, "max_iters": True, "init": True},
    "sweep": {"variable": True, "grid": True},
}


@dataclass
class RunConfig:
    """Fully resolved configuration for one command invocation."""

    command: str
    seed: int = 0
    out: Path = Path("out")
    reps: int = 20
    workers: int = 1
    methods: list[LabelMode] = field(default_factory=lambda: list(LabelMode))
    model: MixtureParams | None = None
    censor_frac: float | None = None
    scheme: CensoringScheme | None = None
    rho: float = 0.0
    sd: float = 0.2
    fit_config: E2MConfig = field(default_factory=E2MConfig)
    init: str | None = None
    sweep_variable: str | None = None
    sweep_grid: list[float] | None = None
    data: Path | None = None
    labels: Path | None = None
    soft_labels: np.ndarray | None = None

    def manifest_dict(self) -> dict:
        """JSON-ready echo of every resolved value."""
        return {
            "command": self.command,
            "seed": self.seed,
            "out": str(self.out),
            "reps": self.reps,
            "workers": self.workers,
            "methods": [m.value for m in self.methods],
            "model": None
            if self.model is None
            else {"lambdas": [float(v) for v in self.model.lambdas], "xis": [float(v) for v in self.model.xis]},
            "scheme": None
            if self.scheme is None
            else {"n": self.scheme.n, "J": self.scheme.J, "R": list(self.scheme.removals)},
            "censor_frac": self.censor_frac,
            "corruption": {"rho": self.rho, "sd": self.sd},
            "fit": {"tol": self.fit_config.tol, "max_iters": self.fit_config.max_iters, "init": self.init},
            "sweep": None
            if self.sweep_variable is None
            else {"variable": self.sweep_variable, "grid": self.sweep_grid},
            "data": None if self.data is None else str(self.data),
            "labels": None if self.labels is None else str(self.labels),
            "soft_labels": None if self.soft_labels is None else [list(map(float, row)) for row in self.soft_labels],
        }


def _check_unknown_keys(raw: Mapping, schema: Mapping, prefix: str = "") -> list[str]:
    unknown = []
    for key, value in raw.items():
        if key not in schema:
            unknown.append(f"{prefix}{key}")
            continue
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(value, Mapping):
                raise ConfigError(f"section '{prefix}{key}' must be a mapping, got {type(value).__name__}")
            unknown += _check_unknown_keys(value, sub, prefix=f"{prefix}{key}.")
    return unknown


def _as_float(raw, name: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"'{name}' must be a number, got {raw!r}") from None


def _as_int(raw, name: str) -> int:
    if isinstance(raw, bool) or (not isinstance(raw, int) and not (isinstance(raw, float) and raw.is_integer())):
        raise ConfigError(f"'{name}' must be an integer, got {raw!r}")
    return int(raw)


def _as_list(raw, name: str) -> list | tuple:
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"'{name}' must be a list, got {raw!r}")
    return raw


def _parse_methods(raw) -> list[LabelMode]:
    if isinstance(raw, str):
        raw = [raw]
    names = []
    for item in _as_list(raw, "methods"):
        if item == "all":
            names.extend(m.value for m in LabelMode)
        else:
            names.append(item)
    methods = []
    for name in names:
        try:
            mode = LabelMode(name)
        except ValueError:
            valid = ", ".join(m.value for m in LabelMode)
            raise ConfigError(f"unknown method {name!r}; valid: {valid}, all") from None
        if mode not in methods:
            methods.append(mode)
    if not methods:
        raise ConfigError("'methods' must name at least one method")
    return methods


def parse_config(
    path: str | Path | None,
    overrides: Mapping[str, Any] | None = None,
    command: str = "fit",
) -> RunConfig:
    """Load a YAML config file and apply flag overrides on top.

    ``overrides`` uses dotted keys mirroring the file layout
    (``scheme.n``, ``corruption.rho``, ``fit.tol``, ...); values set to
    None are ignored.  Raises :class:`ConfigError` on unknown keys or
    invariant violations, naming the offending field.
    """
    raw: dict[str, Any] = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            # libyaml parses a long removal plan about 7x faster than pure Python
            loaded = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, Mapping):
            raise ConfigError(f"config file {path} must contain a mapping at top level")
        raw = dict(loaded)
    unknown = _check_unknown_keys(raw, _SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        parts = key.split(".")
        node = raw
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
        # a censor-frac override supersedes any explicit plan from the file
        if key == "scheme.censor_frac":
            node.pop("R", None)
            node.pop("J", None)

    cfg = RunConfig(command=command)
    cfg.seed = _as_int(raw.get("seed", DEFAULTS["seed"]), "seed")
    cfg.out = Path(str(raw.get("out", DEFAULTS["out"])))
    cfg.reps = _as_int(raw.get("reps", DEFAULTS["reps"]), "reps")
    if cfg.reps < 1:
        raise ConfigError("'reps' must be at least 1")
    cfg.workers = _as_int(raw.get("workers", DEFAULTS["workers"]), "workers")
    if cfg.workers < 1:
        raise ConfigError("'workers' must be at least 1")
    cfg.methods = _parse_methods(raw.get("methods", DEFAULTS["methods"]))

    model = raw.get("model")
    if model is not None:
        if "lambdas" not in model or "xis" not in model:
            raise ConfigError("'model' needs both 'lambdas' and 'xis'")
        lam = [_as_float(v, "model.lambdas") for v in _as_list(model["lambdas"], "model.lambdas")]
        xis = [_as_float(v, "model.xis") for v in _as_list(model["xis"], "model.xis")]
        try:
            cfg.model = MixtureParams(np.array(lam), np.array(xis))
        except ValueError as exc:
            raise ConfigError(f"'model' is invalid: {exc}") from None

    scheme = raw.get("scheme")
    if scheme is not None:
        if "n" not in scheme:
            raise ConfigError("'scheme' needs 'n'")
        n = _as_int(scheme["n"], "scheme.n")
        try:
            if "R" in scheme:
                removals = _as_list(scheme["R"], "scheme.R")
                cfg.scheme = CensoringScheme(n, tuple(_as_int(r, "scheme.R") for r in removals))
            elif "J" in scheme:
                cfg.scheme = conventional_scheme(n, _as_int(scheme["J"], "scheme.J"))
            elif "censor_frac" in scheme:
                cfg.censor_frac = _as_float(scheme["censor_frac"], "scheme.censor_frac")
                cfg.scheme = scheme_from_censor_frac(n, cfg.censor_frac)
            else:
                raise ConfigError("'scheme' needs one of 'censor_frac', 'J', or 'R'")
        except SchemeError as exc:
            raise ConfigError(f"'scheme' is invalid: {exc}") from None
        if cfg.censor_frac is None:
            cfg.censor_frac = 1.0 - cfg.scheme.J / cfg.scheme.n

    corruption = raw.get("corruption", {})
    cfg.rho = _as_float(corruption.get("rho", 0.0), "corruption.rho")
    cfg.sd = _as_float(corruption.get("sd", DEFAULTS["corruption.sd"]), "corruption.sd")
    if not 0.0 <= cfg.rho <= 1.0:
        raise ConfigError(f"'corruption.rho' must be in [0, 1], got {cfg.rho}")
    if cfg.sd < 0.0:
        raise ConfigError(f"'corruption.sd' must be nonnegative, got {cfg.sd}")

    fit_section = raw.get("fit", {})
    tol = _as_float(fit_section.get("tol", DEFAULTS["fit.tol"]), "fit.tol")
    max_iters = _as_int(fit_section.get("max_iters", DEFAULTS["fit.max_iters"]), "fit.max_iters")
    try:
        cfg.fit_config = E2MConfig(max_iters=max_iters, tol=tol)
    except ValueError as exc:
        raise ConfigError(f"'fit' is invalid: {exc}") from None
    cfg.init = fit_section.get("init")
    if cfg.init is not None and cfg.init not in ("truth-offset", "quantile-spread", "model"):
        raise ConfigError(f"'fit.init' must be truth-offset, quantile-spread, or model; got {cfg.init!r}")
    # the truth-offset start, the default of sweeps, is the model's xi minus TRUTH_OFFSET
    offset_start = cfg.init == "truth-offset" or (cfg.init is None and command == "sweep")
    if offset_start and cfg.model is not None and np.any(cfg.model.xis <= TRUTH_OFFSET):
        raise ConfigError(f"'model.xis' must exceed {TRUTH_OFFSET} for the truth-offset start, got {cfg.model.xis.tolist()}")

    sweep = raw.get("sweep")
    if sweep is not None:
        if "variable" not in sweep or "grid" not in sweep:
            raise ConfigError("'sweep' needs 'variable' and 'grid'")
        variable = str(sweep["variable"])
        if variable not in ("rho", "n"):
            raise ConfigError(f"'sweep.variable' must be 'rho' or 'n', got {variable!r}")
        grid = [_as_float(v, "sweep.grid") for v in _as_list(sweep["grid"], "sweep.grid")]
        if not grid:
            raise ConfigError("'sweep.grid' must be nonempty")
        if variable == "rho":
            bad = [g for g in grid if not 0.0 <= g <= 1.0]
            if bad:
                raise ConfigError(f"'sweep.grid' values of a rho sweep must be in [0, 1], got {bad}")
        else:
            # an n sweep runs round(value) units
            bad = [g for g in grid if not (math.isfinite(g) and round(g) >= 1)]
            if bad:
                raise ConfigError(f"'sweep.grid' values of an n sweep must round to at least 1, got {bad}")
        cfg.sweep_variable = variable
        cfg.sweep_grid = grid

    if "data" in raw:
        cfg.data = Path(str(raw["data"]))
    if "labels" in raw:
        cfg.labels = Path(str(raw["labels"]))
    if "soft_labels" in raw:
        # inline plausibility matrix, one row per dataset record
        try:
            matrix = np.array([[float(v) for v in row] for row in raw["soft_labels"]], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("'soft_labels' must be an array of equal-length numeric arrays") from None
        if matrix.ndim != 2:
            raise ConfigError("'soft_labels' must be an array of equal-length numeric arrays")
        cfg.soft_labels = matrix
    return cfg
