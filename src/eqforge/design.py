"""Equalization target construction and regularized least-squares filter design."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from .rtf import MAX_RTF_LENGTH, RelativeTransferEstimate
from .signals import ImpulseResponse, frozen_vector, zero_extend
from .solvers import solve_pooled


@dataclass(frozen=True)
class EqDesignConfig:
    """Solver parameters for the equalization filter design.

    filter_length:  number of FIR taps in the equalizer (L_a), at most 512
    lam:            regularization trade-off (lambda), finite
    acausal_lead:   leading zeros in the estimation targets (L_d, samples), at most 512
    device_delay:   hearing-device processing delay (d_G, samples), at most 512
    weighting:      FIR taps W of the penalty, nonempty; the unit tap (1.0,) is the identity
    """

    filter_length: int = 99
    lam: float = 0.1
    acausal_lead: int = 32
    device_delay: int = 0
    weighting: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        for name, low in (("filter_length", 1), ("acausal_lead", 0), ("device_delay", 0)):
            if not low <= getattr(self, name) <= MAX_RTF_LENGTH:
                raise ValueError(
                    f"{name} must be in [{low}, {MAX_RTF_LENGTH}], got {getattr(self, name)}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        taps = frozen_vector(self.weighting, "weighting").tolist()
        object.__setattr__(self, "weighting", tuple(taps))


_AUDIT_KEYS = ("coefficients", "residual_norm", "penalty_norm", "normal_eq_residual",
               "normal_eq_scale")


@dataclass(frozen=True, eq=False)
class EqFilter:
    """Designed equalizer coefficients, the norms audited at solve time and the design rate."""

    coefficients: np.ndarray
    config: EqDesignConfig
    residual_norm: float
    penalty_norm: float
    normal_eq_residual: float = 0.0
    normal_eq_scale: float = 0.0
    sample_rate_hz: int | None = None  # of the plants; None if a filter file does not say

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", frozen_vector(self.coefficients, "coefficients"))
        if (n := self.coefficients.size) != self.config.filter_length:
            raise ValueError(f"expected {self.config.filter_length} coefficients, got {n}")
        for k in _AUDIT_KEYS[1:]:
            if not 0.0 <= getattr(self, k) < np.inf:
                raise ValueError(f'"{k}" must be finite and nonnegative, got {getattr(self, k)}')
        rate = self.sample_rate_hz
        if rate is not None and json_typed("sample_rate_hz", rate, int, "an integer") <= 0:
            raise ValueError(f'"sample_rate_hz" must be positive, got {rate}')


def build_target(r_open: RelativeTransferEstimate, r_occ: RelativeTransferEstimate,
                 device_delay: int) -> np.ndarray:
    """Equalization target: open-ear RTF minus the device-inverted occluded RTF.

    The device processing is a pure delay of `device_delay` samples, so
    inverting it discards the occluded estimate's leading `device_delay`
    samples and zero-fills the tail.
    """
    if r_open.acausal_lead != r_occ.acausal_lead:
        raise ValueError(f"incompatible acausal leads: {r_open.acausal_lead} vs "
                         f"{r_occ.acausal_lead}")
    if device_delay < 0:
        raise ValueError(f"device_delay must be nonnegative, got {device_delay}")
    occ = r_occ.coefficients
    inverted = np.zeros(occ.size)
    inverted[: max(occ.size - device_delay, 0)] = occ[device_delay:]
    n = max(r_open.coefficients.size, inverted.size)
    return zero_extend(r_open.coefficients, n) - zero_extend(inverted, n)


def design_filter(d_hat: ImpulseResponse, target: np.ndarray, config: EqDesignConfig) -> EqFilter:
    """The design of `design_filter_pooled` over one ear."""
    return design_filter_pooled([d_hat], [target], config)


def design_filter_pooled(d_hats: list[ImpulseResponse], targets: list[np.ndarray],
                         config: EqDesignConfig) -> EqFilter:
    """One filter minimizing the summed regularized least-squares costs over several ears.

    Ear k costs ``|D_k a - t_k|^2 + lam * |W a|^2``, with D_k the full
    convolution matrix of its receiver-to-eardrum estimate, over the common
    support of D_k's rows and its target (shorter side zero-extended). Raises
    SingularSystemError, naming the condition estimate, when the pooled
    normal matrix is numerically singular.
    """
    solution = solve_pooled(d_hats, targets, config.filter_length, lam=config.lam,
                            weight_taps=config.weighting, context="equalizer design")
    return EqFilter(solution.coefficients, config, solution.residual_norm, solution.penalty_norm,
                    solution.normal_eq_residual, solution.normal_eq_scale, d_hats[0].sample_rate_hz)


# ---------------------------------------------------------------------------
# JSON wire format: config fields appear under their published names.
# ---------------------------------------------------------------------------


def json_typed(key: str, value: Any, kind: type | tuple[type, ...], what: str) -> Any:
    """`value` if it is a JSON `kind` (a boolean never is), else a ValueError naming `key`."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f'"{key}" must be {what}, got {value!r}')
    return value


def known_keys(where: str, data: dict[str, Any], keys: Iterable[str]) -> dict[str, Any]:
    """`data` if it holds only `keys`: a misspelt key would silently leave its default."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    return data


# Wire name: (EqDesignConfig field, JSON type, description of the type).
_CONFIG_WIRE = {
    "L_a": ("filter_length", int, "an integer"),
    "lambda": ("lam", (int, float), "a number"),
    "L_d": ("acausal_lead", int, "an integer"),
    "d_G": ("device_delay", int, "an integer"),
    "weighting": ("weighting", list, "a list of numbers"),
}


def config_to_json(config: EqDesignConfig) -> dict[str, Any]:
    out = {key: getattr(config, name) for key, (name, *_) in _CONFIG_WIRE.items()}
    return {**out, "weighting": list(config.weighting)}  # a list, as config_from_json reads it


def config_from_json(data: dict[str, Any]) -> EqDesignConfig:
    """Design config from the wire keys present; an unknown key or wrong type is a ValueError."""
    known_keys('"design"', data, _CONFIG_WIRE)
    kwargs = {name: json_typed(key, data[key], kind, what)
              for key, (name, kind, what) in _CONFIG_WIRE.items() if key in data}
    if "lam" in kwargs:
        kwargs["lam"] = float(kwargs["lam"])
    for tap in kwargs.get("weighting", ()):  # numpy would read "1" or true as 1.0
        json_typed("weighting", tap, (int, float), "a list of numbers")
    return EqDesignConfig(**kwargs)


def filter_to_json(filt: EqFilter) -> dict[str, Any]:
    out = config_to_json(filt.config)
    out["coefficients"] = filt.coefficients.tolist()
    out.update((key, getattr(filt, key)) for key in _AUDIT_KEYS[1:])
    return out if filt.sample_rate_hz is None else {**out, "sample_rate_hz": filt.sample_rate_hz}


def filter_from_json(data: Any) -> EqFilter:
    json_typed("filter", data, dict, "an object")
    known_keys("the filter", data, (*_CONFIG_WIRE, *_AUDIT_KEYS, "sample_rate_hz"))
    coefficients = json_typed("coefficients", data["coefficients"], list, "a list of numbers")
    for c in coefficients:
        json_typed("coefficients", c, (int, float), "a list of numbers")
    audit = {"normal_eq_residual": 0.0, "normal_eq_scale": 0.0, **data}  # older files lack both
    norms = {k: json_typed(k, audit[k], (int, float), "a number") for k in _AUDIT_KEYS[1:]}
    # Every design key is required: a missing one would take its default, another design.
    config = config_from_json({k: data[k] for k in _CONFIG_WIRE})
    rate = data.get("sample_rate_hz")  # older files lack it: they play at the ear's rate
    if "sample_rate_hz" in data and rate is None:
        raise ValueError('"sample_rate_hz" must be an integer, got None')
    return EqFilter(coefficients, config, **norms, sample_rate_hz=rate)
