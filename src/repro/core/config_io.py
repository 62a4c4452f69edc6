"""Run-configuration files.

Observatory deployments pin their processing parameters in a config
file rather than code; this module round-trips a :class:`RunContext`'s
numerical settings through JSON, and backs ``repro-process --config``.

Schema (all sections optional; omitted values keep the defaults)::

    {
      "filter":   {"f_stop_low": 0.05, "f_pass_low": 0.1,
                   "f_pass_high": 25.0, "f_stop_high": 30.0},
      "response": {"periods": {"count": 100, "t_min": 0.02, "t_max": 20.0},
                   "dampings": [0.0, 0.02, 0.05, 0.1, 0.2],
                   "method": "nigam_jennings", "pseudo": false},
      "inflection": {"min_period": 1.0, "smoothing_half_width": 4,
                     "persistence": 3, "fsl_ratio": 0.5,
                     "fallback_period": 10.0},
      "parallel": {"backend": "thread", "num_workers": 8},
      "taper_fraction": 0.05,
      "fourier_max_period": 20.0
    }

``response.periods`` also accepts an explicit list of seconds.  An
unknown key in any section, or a value of the wrong type, raises
:class:`~repro.errors.PipelineError`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.context import InflectionSettings, ParallelSettings, RunContext
from repro.dsp.fir import BandPassSpec
from repro.errors import PipelineError
from repro.spectra.response import ResponseSpectrumConfig, default_periods


def load_config(path: Path | str) -> dict:
    """Load and minimally validate a configuration file."""
    path = Path(path)
    if not path.exists():
        raise PipelineError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise PipelineError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise PipelineError(f"{path}: config must be a JSON object")
    known = {
        "filter", "response", "inflection", "parallel",
        "taper_fraction", "fourier_max_period",
    }
    unknown = set(config) - known
    if unknown:
        raise PipelineError(f"{path}: unknown config keys {sorted(unknown)}")
    return config


#: The keys each section (and the ``response.periods`` grid) accepts.
_KEYS = {
    "filter": ("f_stop_low", "f_pass_low", "f_pass_high", "f_stop_high"),
    "response": ("periods", "dampings", "method", "pseudo"),
    "response.periods": ("count", "t_min", "t_max"),
    "inflection": (
        "min_period", "smoothing_half_width", "persistence", "fsl_ratio",
        "fallback_period",
    ),
    "parallel": ("backend", "num_workers"),
}


def _checked(section: object, name: str) -> dict:
    """``section`` as a mapping holding only the keys ``name`` accepts."""
    if not isinstance(section, dict):
        raise PipelineError(
            f"config section {name!r} must be a JSON object, got {type(section).__name__}"
        )
    unknown = set(section) - set(_KEYS[name])
    if unknown:
        raise PipelineError(
            f"unknown keys {sorted(unknown)} in config section {name!r}; "
            f"expected some of {list(_KEYS[name])}"
        )
    return section


def _filter_from(config: dict) -> BandPassSpec:
    section = _checked(config.get("filter", {}), "filter")
    from repro.dsp.fir import DEFAULT_BANDPASS

    return BandPassSpec(
        f_stop_low=float(section.get("f_stop_low", DEFAULT_BANDPASS.f_stop_low)),
        f_pass_low=float(section.get("f_pass_low", DEFAULT_BANDPASS.f_pass_low)),
        f_pass_high=float(section.get("f_pass_high", DEFAULT_BANDPASS.f_pass_high)),
        f_stop_high=float(section.get("f_stop_high", DEFAULT_BANDPASS.f_stop_high)),
    )


def _response_from(config: dict) -> ResponseSpectrumConfig:
    section = _checked(config.get("response", {}), "response")
    periods_cfg = section.get("periods", {})
    if isinstance(periods_cfg, list):
        periods = np.asarray(periods_cfg, dtype=float)
    else:
        periods_cfg = _checked(periods_cfg, "response.periods")
        periods = default_periods(
            int(periods_cfg.get("count", 100)),
            float(periods_cfg.get("t_min", 0.02)),
            float(periods_cfg.get("t_max", 20.0)),
        )
    return ResponseSpectrumConfig(
        periods=periods,
        dampings=tuple(section.get("dampings", (0.0, 0.02, 0.05, 0.10, 0.20))),
        method=section.get("method", "nigam_jennings"),
        pseudo=bool(section.get("pseudo", False)),
    )


def _inflection_from(config: dict) -> InflectionSettings:
    section = _checked(config.get("inflection", {}), "inflection")
    defaults = InflectionSettings()
    return InflectionSettings(
        min_period=float(section.get("min_period", defaults.min_period)),
        smoothing_half_width=int(
            section.get("smoothing_half_width", defaults.smoothing_half_width)
        ),
        persistence=int(section.get("persistence", defaults.persistence)),
        fsl_ratio=float(section.get("fsl_ratio", defaults.fsl_ratio)),
        fallback_period=float(section.get("fallback_period", defaults.fallback_period)),
    )


def _parallel_from(config: dict) -> ParallelSettings:
    section = _checked(config.get("parallel", {}), "parallel")
    num_workers = section.get("num_workers")
    if num_workers is not None and (type(num_workers) is not int or num_workers < 1):
        raise PipelineError(
            f"parallel.num_workers must be a positive integer or null, got {num_workers!r}"
        )
    return ParallelSettings(section.get("backend", "thread"), num_workers)


def context_from_config(root: Path | str, config: dict) -> RunContext:
    """Build a context at ``root`` from a loaded configuration."""
    try:
        settings = dict(
            default_filter=_filter_from(config),
            response_config=_response_from(config),
            inflection=_inflection_from(config),
            parallel=_parallel_from(config),
            taper_fraction=float(config.get("taper_fraction", 0.05)),
            fourier_max_period=float(config.get("fourier_max_period", 20.0)),
        )
    except (TypeError, ValueError) as exc:
        raise PipelineError(f"ill-typed config value: {exc}") from exc
    return RunContext.for_directory(root, **settings)


def config_from_context(ctx: RunContext) -> dict:
    """Serialize a context's settings (inverse of the builders above)."""
    return {
        "filter": {
            "f_stop_low": ctx.default_filter.f_stop_low,
            "f_pass_low": ctx.default_filter.f_pass_low,
            "f_pass_high": ctx.default_filter.f_pass_high,
            "f_stop_high": ctx.default_filter.f_stop_high,
        },
        "response": {
            "periods": [float(p) for p in ctx.response_config.periods],
            "dampings": list(ctx.response_config.dampings),
            "method": ctx.response_config.method,
            "pseudo": ctx.response_config.pseudo,
        },
        "inflection": {
            "min_period": ctx.inflection.min_period,
            "smoothing_half_width": ctx.inflection.smoothing_half_width,
            "persistence": ctx.inflection.persistence,
            "fsl_ratio": ctx.inflection.fsl_ratio,
            "fallback_period": ctx.inflection.fallback_period,
        },
        "parallel": {
            "backend": ctx.parallel.backend.value,
            "num_workers": ctx.parallel.num_workers,
        },
        "taper_fraction": ctx.taper_fraction,
        "fourier_max_period": ctx.fourier_max_period,
    }


def save_config(path: Path | str, ctx: RunContext) -> None:
    """Write a context's settings as a config file."""
    Path(path).write_text(json.dumps(config_from_context(ctx), indent=2) + "\n")
