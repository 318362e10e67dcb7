"""Equalization target construction and regularized least-squares filter design."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from .rtf import MAX_RTF_LENGTH, RelativeTransferEstimate
from .signals import ImpulseResponse, frozen_vector, zero_extend
from .solvers import audit_pooled, solve_pooled


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
        object.__setattr__(self, "lam", float(self.lam))
        taps = frozen_vector(self.weighting, "weighting").tolist()
        object.__setattr__(self, "weighting", tuple(taps))


@dataclass(frozen=True, eq=False)
class EqFilter:
    """Designed equalizer coefficients, the norms audited at solve time and the plants' rate."""

    coefficients: np.ndarray
    config: EqDesignConfig
    residual_norm: float
    penalty_norm: float
    normal_eq_residual: float
    normal_eq_scale: float
    sample_rate_hz: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", frozen_vector(self.coefficients, "coefficients"))
        if (n := self.coefficients.size) != self.config.filter_length:
            raise ValueError(f"expected {self.config.filter_length} coefficients, got {n}")
        for k in ("residual_norm", "penalty_norm", "normal_eq_residual", "normal_eq_scale"):
            if not 0.0 <= getattr(self, k) < np.inf:
                raise ValueError(f'"{k}" must be finite and nonnegative, got {getattr(self, k)}')
        if json_typed("sample_rate_hz", self.sample_rate_hz, int, "an integer") <= 0:
            raise ValueError(f'"sample_rate_hz" must be positive, got {self.sample_rate_hz}')


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
    penalty = {"lam": config.lam, "weight_taps": config.weighting}
    x = solve_pooled(d_hats, targets, config.filter_length, **penalty, context="equalizer design")
    return EqFilter(x, config, *audit_pooled(d_hats, targets, x, **penalty),
                    d_hats[0].sample_rate_hz)


# ---------------------------------------------------------------------------
# JSON wire format: the filter file, whose design keys a config's "design" section holds.
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


# The filter file, in file order: wire key -> (attribute, JSON type, description of the type).
FILTER_WIRE = {
    "L_a": ("filter_length", int, "an integer"),
    "lambda": ("lam", (int, float), "a number"),
    "L_d": ("acausal_lead", int, "an integer"),
    "d_G": ("device_delay", int, "an integer"),
    "weighting": ("weighting", list, "a list of numbers"),
    "coefficients": ("coefficients", list, "a list of numbers"),
    "residual_norm": ("residual_norm", (int, float), "a number"),
    "penalty_norm": ("penalty_norm", (int, float), "a number"),
    "normal_eq_residual": ("normal_eq_residual", (int, float), "a number"),
    "normal_eq_scale": ("normal_eq_scale", (int, float), "a number"),
    "sample_rate_hz": ("sample_rate_hz", int, "an integer"),
}
CONFIG_KEYS = tuple(FILTER_WIRE)[:5]  # EqDesignConfig fields; the rest are EqFilter fields


def _wired(key: str, value: Any) -> Any:
    """`value` if it has `key`'s JSON type in FILTER_WIRE, a list holding only numbers."""
    _, kind, what = FILTER_WIRE[key]
    json_typed(key, value, kind, what)
    for item in value if kind is list else ():  # numpy would read "1" or true as 1.0
        json_typed(key, item, (int, float), what)
    return value


def config_from_json(data: dict[str, Any]) -> EqDesignConfig:
    """Design config from the wire keys present; an unknown key or wrong type is a ValueError."""
    known_keys('"design"', data, CONFIG_KEYS)
    return EqDesignConfig(**{FILTER_WIRE[k][0]: _wired(k, v) for k, v in data.items()})


def filter_to_json(filt: EqFilter) -> dict[str, Any]:
    out = {}
    for key, (name, kind, _) in FILTER_WIRE.items():
        value = getattr(filt.config if key in CONFIG_KEYS else filt, name)
        out[key] = np.asarray(value).tolist() if kind is list else value
    return out


def filter_from_json(data: Any) -> EqFilter:
    """The filter in a filter file's object; a missing key is a KeyError, never its default."""
    json_typed("filter", data, dict, "an object")
    known_keys("the filter", data, FILTER_WIRE)
    config = config_from_json({key: data[key] for key in CONFIG_KEYS})
    return EqFilter(config=config, **{name: _wired(key, data[key]) for key, (name, *_)
                                      in FILTER_WIRE.items() if key not in CONFIG_KEYS})
