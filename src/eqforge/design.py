"""Equalization target construction and regularized least-squares filter design."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .rtf import MAX_RTF_LENGTH, RelativeTransferEstimate
from .signals import ImpulseResponse, zero_extend
from .solvers import solve_pooled

WEIGHTING_MODES = ("identity", "fir")


@dataclass(frozen=True)
class WeightingSpec:
    """Penalty weighting: identity, or convolution with FIR taps."""

    mode: str = "identity"
    fir_taps: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in WEIGHTING_MODES:
            raise ValueError(f"mode must be one of {WEIGHTING_MODES}, got {self.mode!r}")
        if self.mode == "fir":
            if not self.fir_taps:
                raise ValueError("fir weighting requires nonempty fir_taps")
            object.__setattr__(self, "fir_taps", tuple(float(t) for t in self.fir_taps))


@dataclass(frozen=True)
class EqDesignConfig:
    """Solver parameters for the equalization filter design.

    filter_length:  number of FIR taps in the equalizer (L_a), at most 512
    lam:            regularization trade-off (lambda), finite
    acausal_lead:   leading zeros in the estimation targets (L_d, samples), at most 512
    device_delay:   hearing-device processing delay (d_G, samples), at most 512
    """

    filter_length: int = 99
    lam: float = 0.1
    acausal_lead: int = 32
    device_delay: int = 0
    weighting: WeightingSpec = field(default_factory=WeightingSpec)

    def __post_init__(self) -> None:
        for name, low in (("filter_length", 1), ("acausal_lead", 0), ("device_delay", 0)):
            if not low <= getattr(self, name) <= MAX_RTF_LENGTH:
                raise ValueError(
                    f"{name} must be in [{low}, {MAX_RTF_LENGTH}], got {getattr(self, name)}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")


@dataclass(frozen=True, eq=False)
class EqFilter:
    """Designed equalizer coefficients plus the norms audited at solve time."""

    coefficients: np.ndarray
    config: EqDesignConfig
    residual_norm: float
    penalty_norm: float
    normal_eq_residual: float = 0.0
    normal_eq_scale: float = 0.0

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=np.float64, copy=True)
        if coeffs.ndim != 1 or coeffs.size != self.config.filter_length:
            raise ValueError(
                f"expected {self.config.filter_length} coefficients, got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must all be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return int(self.coefficients.size)


def weighting_taps(spec: WeightingSpec) -> np.ndarray:
    """FIR taps of the penalty weighting; the identity is a unit impulse."""
    return np.asarray(spec.fir_taps if spec.mode == "fir" else (1.0,), dtype=np.float64)


def build_target(
    r_open: RelativeTransferEstimate,
    r_occ: RelativeTransferEstimate,
    device_delay: int,
) -> np.ndarray:
    """Equalization target: open-ear RTF minus the device-inverted occluded RTF.

    The device processing is a pure delay of `device_delay` samples, so
    inverting it discards the occluded estimate's leading `device_delay`
    samples and zero-fills the tail.
    """
    if r_open.acausal_lead != r_occ.acausal_lead:
        raise ValueError(
            f"incompatible acausal leads: {r_open.acausal_lead} vs {r_occ.acausal_lead}"
        )
    if device_delay < 0:
        raise ValueError(f"device_delay must be nonnegative, got {device_delay}")
    occ = r_occ.coefficients
    inverted = np.zeros(occ.size)
    inverted[: max(occ.size - device_delay, 0)] = occ[device_delay:]
    n = max(r_open.coefficients.size, inverted.size)
    return zero_extend(r_open.coefficients, n) - zero_extend(inverted, n)


def design_filter(
    d_hat: ImpulseResponse, target: np.ndarray, config: EqDesignConfig
) -> EqFilter:
    """Solve the regularized least-squares equalizer design.

    Minimizes ``|D a - t|^2 + lam * |W a|^2`` with D the full convolution
    matrix of the receiver-to-eardrum estimate `d_hat`, over the common
    support of D's rows and the target (shorter side zero-extended).

    Raises SingularSystemError (naming the condition estimate) when lam = 0
    and the normal matrix is numerically singular.
    """
    return design_filter_pooled([d_hat], [target], config)


def design_filter_pooled(
    d_hats: list[ImpulseResponse],
    targets: list[np.ndarray],
    config: EqDesignConfig,
) -> EqFilter:
    """One filter minimizing the summed design costs over several ears.

    Each ear contributes its own plant/target residual and one copy of the
    regularization penalty, so the pooled normal matrix carries the penalty
    scaled by the number of pooled ears.
    """
    solution = solve_pooled(
        d_hats, targets, config.filter_length,
        lam=config.lam,
        weight_taps=weighting_taps(config.weighting),
        context="equalizer design",
    )
    return EqFilter(
        coefficients=solution.coefficients,
        config=config,
        residual_norm=solution.residual_norm,
        penalty_norm=solution.penalty_norm,
        normal_eq_residual=solution.normal_eq_residual,
        normal_eq_scale=solution.normal_eq_scale,
    )


# ---------------------------------------------------------------------------
# JSON wire format: config fields appear under their published names.
# ---------------------------------------------------------------------------


def weighting_to_json(spec: WeightingSpec) -> dict[str, Any]:
    out: dict[str, Any] = {"mode": spec.mode}
    if spec.fir_taps is not None:
        out["fir_taps"] = list(spec.fir_taps)
    return out


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


def weighting_from_json(data: Any) -> WeightingSpec:
    json_typed("weighting", data, dict, "an object")
    known_keys('"weighting"', data, ("mode", "fir_taps"))
    taps = json_typed("fir_taps", data.get("fir_taps", []), list, "a list of numbers")
    for tap in taps:
        json_typed("fir_taps", tap, (int, float), "a list of numbers")
    mode = {"mode": json_typed("mode", data["mode"], str, "a string")} if "mode" in data else {}
    return WeightingSpec(**mode, fir_taps=tuple(taps) or None)


# Wire name: (EqDesignConfig field, JSON type, description of the type).
_CONFIG_WIRE = {
    "L_a": ("filter_length", int, "an integer"),
    "lambda": ("lam", (int, float), "a number"),
    "L_d": ("acausal_lead", int, "an integer"),
    "d_G": ("device_delay", int, "an integer"),
}
_AUDIT_KEYS = ("coefficients", "residual_norm", "penalty_norm", "normal_eq_residual",
               "normal_eq_scale")


def config_to_json(config: EqDesignConfig) -> dict[str, Any]:
    out: dict[str, Any] = {key: getattr(config, name) for key, (name, *_) in _CONFIG_WIRE.items()}
    out["weighting"] = weighting_to_json(config.weighting)
    return out


def config_from_json(data: dict[str, Any]) -> EqDesignConfig:
    """Design config from the wire keys present; an unknown key or wrong type is a ValueError."""
    known_keys('"design"', data, (*_CONFIG_WIRE, "weighting"))
    kwargs = {name: json_typed(key, data[key], kind, what)
              for key, (name, kind, what) in _CONFIG_WIRE.items() if key in data}
    if "lam" in kwargs:
        kwargs["lam"] = float(kwargs["lam"])
    if "weighting" in data:
        kwargs["weighting"] = weighting_from_json(data["weighting"])
    return EqDesignConfig(**kwargs)


def filter_to_json(filt: EqFilter) -> dict[str, Any]:
    out = config_to_json(filt.config)
    out["coefficients"] = [float(c) for c in filt.coefficients]
    out["residual_norm"] = filt.residual_norm
    out["penalty_norm"] = filt.penalty_norm
    out["normal_eq_residual"] = filt.normal_eq_residual
    out["normal_eq_scale"] = filt.normal_eq_scale
    return out


def filter_from_json(data: dict[str, Any]) -> EqFilter:
    known_keys("the filter", data, (*_CONFIG_WIRE, "weighting", *_AUDIT_KEYS))
    return EqFilter(
        coefficients=np.asarray(data["coefficients"], dtype=np.float64),
        config=config_from_json({k: v for k, v in data.items() if k not in _AUDIT_KEYS}),
        residual_norm=float(data["residual_norm"]),
        penalty_norm=float(data["penalty_norm"]),
        normal_eq_residual=float(data.get("normal_eq_residual", 0.0)),
        normal_eq_scale=float(data.get("normal_eq_scale", 0.0)),
    )
