"""Run configuration: YAML file plus command-line overrides.

The file vocabulary is shared by all subcommands; unknown keys anywhere are
an error that lists them.  A command parses, takes the flags of, and echoes
in its run manifest only the sections :data:`READS` lists for it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import yaml

from .censoring import CensoringScheme, SchemeError, conventional_scheme, scheme_from_censor_frac
from .estimator import E2MConfig, LabelMode
from .rayleigh import MixtureParams
from .simulation import INIT_RULES, CorruptionConfig, SweepSpec, truth_offset_init

__all__ = ["ConfigError", "READS", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """The run configuration is malformed or violates an invariant."""


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
# the top-level sections each command reads; parse_config checks the others only for unknown keys
READS: dict[str, tuple[str, ...]] = {
    "generate": ("seed", "out", "model", "scheme", "corruption"),
    "fit": ("out", "data", "labels", "soft_labels", "model", "fit"),
    "sweep": tuple(key for key in _SCHEMA if key not in ("data", "labels", "soft_labels")),
}


@dataclass
class RunConfig:
    """Fully resolved configuration for one command invocation; a section it does not read keeps its default."""

    command: str
    seed: int = 0
    out: Path = Path("out")
    reps: int = 20
    workers: int = os.cpu_count() or 1
    methods: list[LabelMode] = field(default_factory=lambda: list(LabelMode))
    model: MixtureParams | None = None
    censor_frac: float | None = None
    scheme: CensoringScheme | None = None
    corruption: CorruptionConfig = field(default_factory=lambda: CorruptionConfig(0.0))
    fit_config: E2MConfig = field(default_factory=E2MConfig)
    init: str | None = None
    sweep: SweepSpec | None = None
    data: Path | None = None
    labels: Path | None = None
    soft_labels: np.ndarray | None = None

    def manifest_dict(self) -> dict:
        """JSON-ready echo of every resolved value of the sections the command reads."""
        full = {
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
            else {"n": self.scheme.n, "J": self.scheme.J, "R": list(self.scheme.removals), "censor_frac": self.censor_frac},
            "corruption": {"rho": self.corruption.rho, "sd": self.corruption.sd},
            "fit": {"tol": self.fit_config.tol, "max_iters": self.fit_config.max_iters, "init": self.init},
            "sweep": None if self.sweep is None else {"variable": self.sweep.variable, "grid": list(self.sweep.grid)},
            "data": None if self.data is None else str(self.data),
            "labels": None if self.labels is None else str(self.labels),
            "soft_labels": None if self.soft_labels is None else [list(map(float, row)) for row in self.soft_labels],
        }
        return {"command": self.command, **{k: v for k, v in full.items() if k in READS[self.command]}}


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


def _number(raw) -> float:
    """``float(raw)``, but a TypeError for a boolean, which YAML reads from true/yes/on and false/no/off."""
    if isinstance(raw, bool):
        raise TypeError("a boolean is not a number")
    return float(raw)


def _as_float(raw, name: str) -> float:
    try:
        return _number(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"'{name}' must be a number, got {raw!r}") from None
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"'{name}' must be a number in the float range, got <{len(str(abs(raw)))} digits>") from None


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
    *,
    command: str,
) -> RunConfig:
    """Load a YAML config file and apply flag overrides on top.

    ``overrides`` uses dotted keys mirroring the file layout
    (``scheme.n``, ``corruption.rho``, ``fit.tol``, ...); values set to
    None are ignored.  Raises :class:`ConfigError` on unknown keys anywhere,
    and on invariant violations and missing inputs in the sections
    :data:`READS` lists for ``command``, the only ones it parses, naming
    the offending field.  Resolves ``init``, the start rule of its fits.
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
        except ValueError as exc:
            # an integer beyond Python's digit limit, an impossible date or a file that is not UTF-8; no such
            # message echoes the value, and the digit limit's hint at sys.set_int_max_str_digits is cut
            reason = str(exc).split(";")[0]
            raise ConfigError(f"config file {path} holds a value that cannot be read: {reason}") from None
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
    raw = {key: value for key, value in raw.items() if key in READS[command]}

    cfg = RunConfig(command=command)
    cfg.seed = _as_int(raw.get("seed", cfg.seed), "seed")
    if cfg.seed < 0:
        raise ConfigError(f"'seed' must be nonnegative, got {cfg.seed}")
    out = raw.get("out", cfg.out)
    if not isinstance(out, (str, os.PathLike)) or "\0" in str(out):  # an empty 'out:' is None; no OS takes NUL
        raise ConfigError(f"'out' must be a path, got {out!r}")
    cfg.out = Path(out)
    cfg.reps = _as_int(raw.get("reps", cfg.reps), "reps")
    cfg.workers = _as_int(raw.get("workers", cfg.workers), "workers")
    if cfg.workers < 1:
        raise ConfigError("'workers' must be at least 1")
    cfg.methods = _parse_methods(raw.get("methods", cfg.methods))

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
        # checked once the plan is read, so a malformed value is named first; --censor-frac has dropped 'J' and 'R'
        plan = [key for key in ("censor_frac", "J", "R") if key in scheme]
        if len(plan) > 1:
            raise ConfigError(f"'scheme' must give only one of 'censor_frac', 'J' and 'R', got {', '.join(plan)}")
        if cfg.censor_frac is None:
            cfg.censor_frac = 1.0 - cfg.scheme.J / cfg.scheme.n

    corruption = raw.get("corruption", {})
    rho = _as_float(corruption.get("rho", cfg.corruption.rho), "corruption.rho")
    sd = _as_float(corruption.get("sd", cfg.corruption.sd), "corruption.sd")
    try:
        cfg.corruption = CorruptionConfig(rho, sd)
    except ValueError as exc:
        raise ConfigError(f"'corruption' is invalid: {exc}") from None

    fit_section = raw.get("fit", {})
    tol = _as_float(fit_section.get("tol", cfg.fit_config.tol), "fit.tol")
    max_iters = _as_int(fit_section.get("max_iters", cfg.fit_config.max_iters), "fit.max_iters")
    try:
        cfg.fit_config = E2MConfig(max_iters=max_iters, tol=tol)
    except ValueError as exc:
        raise ConfigError(f"'fit' is invalid: {exc}") from None

    for key in ("data", "labels"):  # an empty 'data:' is None, a missing input the required check names
        value = raw.get(key)
        if value is not None:
            if not isinstance(value, str) or not value or "\0" in value:  # '' is the working directory; no OS takes NUL
                raise ConfigError(f"'{key}' must be a path, got {value!r}")
            setattr(cfg, key, Path(value))
    if "soft_labels" in raw:
        # inline plausibility matrix, one row per dataset record
        try:
            matrix = np.array([[_number(v) for v in row] for row in raw["soft_labels"]], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("'soft_labels' must be an array of equal-length numeric arrays") from None
        if matrix.ndim != 2:
            raise ConfigError("'soft_labels' must be an array of equal-length numeric arrays")
        cfg.soft_labels = matrix
    if cfg.labels is not None and cfg.soft_labels is not None:
        raise ConfigError("the fit command takes only one of 'labels' and 'soft_labels'")

    cfg.init = fit_section.get("init")
    if cfg.init is None:  # each command's default start rule; generate fits nothing
        cfg.init = {"fit": "model" if cfg.model is not None else "quantile-spread", "sweep": "truth-offset"}.get(command)
    elif cfg.init not in INIT_RULES:
        raise ConfigError(f"'fit.init' must be one of {', '.join(INIT_RULES)}; got {cfg.init!r}")
    # each command's required inputs: the keys of which one must be given, and how the error names them
    required = {
        "generate": [(("model",), "a 'model' section"), (("scheme",), "a 'scheme' section")],
        "fit": [(("data",), "a 'data' path"), (("labels", "soft_labels"), "'labels' (CSV path) or inline 'soft_labels'")]
        + ([(("model",), f"a 'model' section (fit.init = {cfg.init})")] if cfg.init != "quantile-spread" else []),
        "sweep": [(("model",), "a 'model' section"), (("scheme",), "a 'scheme' section"), (("sweep",), "a 'sweep' section")],
    }
    for keys, what in required[command]:
        if all(raw.get(key) is None for key in keys):
            raise ConfigError(f"the {command} command needs {what}")
    try:  # the only check of a fit's truth-offset start; a sweep's SweepSpec checks it again
        if cfg.init == "truth-offset" and cfg.model is not None:
            truth_offset_init(cfg.model)
        if command == "sweep":
            grid = [_as_float(v, "sweep.grid") for v in _as_list(raw["sweep"].get("grid"), "sweep.grid")]
            cfg.sweep = SweepSpec(raw["sweep"].get("variable"), tuple(grid), cfg.reps, cfg.model, cfg.scheme,
                                  cfg.censor_frac, cfg.corruption, tuple(cfg.methods), cfg.init, cfg.fit_config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg
