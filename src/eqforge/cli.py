"""Command-line front-end: cohort synthesis, filter design, experiments, evaluation.

Every input has one way in. Value precedence everywhere: explicit flags
override config-file entries, which override built-in defaults. A run's
cohort is a manifest (`--manifest` or `cohort.manifest`) or is synthesized
from `cohort.synth`, whose seed `--seed` overrides; `--seed` with a manifest
is an error. `EQFORGE_LOG` (debug/info/warning/error) sets verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from . import cohort as cohort_mod
from .conditions import CONDITION_NAMES, condition_named, design_for_condition, evaluate
from .design import EqDesignConfig, config_from_json, filter_from_json, filter_to_json
from .design import json_typed, known_keys
from .experiment import DEFAULT_DELAYS, run_experiment, write_report
from .solvers import SingularSystemError


class CliError(Exception):
    """User-facing failure; the message is printed and the exit code is 1."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors take `main`'s one error path."""

    def error(self, message: str) -> NoReturn:
        raise CliError(message)


def _setup_logging() -> None:
    level_name = os.environ.get("EQFORGE_LOG", "warning").lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO,
             "warning": logging.WARNING, "error": logging.ERROR}.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@contextlib.contextmanager
def _reported(what: str):
    """Turn a load, parse or validation failure into a one-line CliError."""
    try:
        yield
    except KeyError as exc:
        raise CliError(f"{what}: missing key {exc}") from exc
    except (ArithmeticError, OSError, TypeError, ValueError) as exc:
        raise CliError(f"{what}: {exc}") from exc


# The JSON type of every top-level and "cohort" config key; `config_from_json`
# checks the keys inside "design".
_CONFIG_KEYS = (
    ("the config", "", {"cohort": dict, "conditions": list, "delays": list, "design": dict,
                        "out": str}),
    ('"cohort"', "cohort.", {"manifest": str, "synth": dict}),
)
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    """The checked config file, with "design" parsed into an EqDesignConfig."""
    config: dict[str, Any] = {}
    if args.config:
        p = Path(args.config)
        if not p.exists():
            raise CliError(f"config file not found: {p}")
        with _reported(f"invalid config file {p}"):
            config = json_typed("config", json.loads(p.read_text()), dict, "an object")
            for where, prefix, kinds in _CONFIG_KEYS:
                section = config.get(prefix[:-1], {}) if prefix else config
                for key, value in known_keys(where, section, kinds).items():
                    json_typed(prefix + key, value, kinds[key], _JSON_KINDS[kinds[key]])
            if {"manifest", "synth"} <= config.get("cohort", {}).keys():
                raise ValueError('"cohort" holds both "manifest" and "synth"; give one')
    # Parsed now, so that a bad design key fails before the cohort loads.
    design = config.get("design", {})
    config["design"] = config_from_json(design)
    if "delays" in args and "d_G" in design:
        raise CliError('"design.d_G" is for `design` only; an experiment takes its delays '
                       'from "delays" or --delays')
    if args.seed is not None and "manifest" in args and _manifest(args, config) is not None:
        raise CliError("--seed sets the seed of a synthesized cohort; it cannot go with a manifest")
    return config


def _pick(flag: Any, config_value: Any, default: Any) -> Any:
    if flag is not None:
        return flag
    if config_value is not None:
        return config_value
    return default


def _design_config(args: argparse.Namespace, config: dict[str, Any]) -> EqDesignConfig:
    flags = {"filter_length": args.filter_length, "lam": args.lam, "acausal_lead": args.lead}
    given = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(config["design"], **given)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _synth_params(args: argparse.Namespace, config: dict[str, Any]) -> cohort_mod.SynthCohortParams:
    data = dict(config.get("cohort", {}).get("synth", {}))
    if args.seed is not None:
        data["seed"] = args.seed
    return cohort_mod.params_from_json(data)


def _manifest(args: argparse.Namespace, config: dict[str, Any]) -> str | None:
    """The manifest a cohort-loading command reads, or None to synthesize the cohort."""
    return _pick(args.manifest, config.get("cohort", {}).get("manifest"), None)


def _load_cohort(args: argparse.Namespace, config: dict[str, Any]) -> cohort_mod.CohortData:
    manifest = _manifest(args, config)
    if manifest is not None:
        path = Path(manifest)
        if not path.exists():
            raise CliError(f"manifest not found: {path}")
        with _reported(f"invalid manifest {path}"):
            return cohort_mod.load_manifest(path)
    params = _synth_params(args, config)
    return cohort_mod.CohortData.of(cohort_mod.synth_cohort(params),
                                    cohort_mod.synth_dummy_ear(params))


def _apply_exclusion(data: cohort_mod.CohortData, exclude: str | None) -> cohort_mod.CohortData:
    if not exclude:
        return data
    if exclude not in data.subject_ids:
        raise CliError(f"--exclude-subject {exclude!r}: no such subject in the cohort")
    return dataclasses.replace(data, subject_ids=tuple(i for i in data.subject_ids if i != exclude))


def cmd_synth(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if "manifest" in config.get("cohort", {}):
        raise CliError('`synth` synthesizes a cohort from "cohort.synth"; '
                       'it cannot take "cohort.manifest"')
    params = _synth_params(args, config)
    out_dir = Path(_pick(args.out, config.get("out"), None) or _fail_out())
    ears = cohort_mod.synth_cohort(params)
    dummy = cohort_mod.synth_dummy_ear(params)
    with _reported(f"cannot write cohort under {out_dir}"):
        manifest = cohort_mod.save_cohort(ears, out_dir, dummy=dummy, params=params)
    print(manifest)
    return 0


def _fail_out() -> str:
    raise CliError("--out is required (or set \"out\" in the config file)")


def cmd_design(args: argparse.Namespace) -> int:
    config = _load_config(args)
    cfg = _design_config(args, config)
    cfg = dataclasses.replace(cfg, device_delay=_pick(args.delay, None, cfg.device_delay))
    data = _apply_exclusion(_load_cohort(args, config), args.exclude_subject)
    filt = design_for_condition(data, args.subject, condition_named(args.condition), cfg)
    out = Path(_pick(args.out, config.get("out"), None) or _fail_out())
    with _reported(f"cannot write {out}"):
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(filter_to_json(filt), indent=2) + "\n")
    print(out)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _load_config(args)
    cfg = _design_config(args, config)
    conditions = list(_pick(args.conditions, config.get("conditions"), CONDITION_NAMES))
    delays = list(_pick(args.delays, config.get("delays"), DEFAULT_DELAYS))
    if not conditions or not delays:
        raise CliError("need at least one condition and one delay")
    for name in conditions:
        condition_named(json_typed("conditions", name, str, "a list of names"))
    for delay in delays:
        dataclasses.replace(cfg, device_delay=json_typed("delays", delay, int, "integers"))
    data = _apply_exclusion(_load_cohort(args, config), args.exclude_subject)
    out_dir = Path(_pick(args.out, config.get("out"), None) or _fail_out())
    try:
        result = run_experiment(data, conditions, delays, cfg, out_dir)
    except OSError as exc:
        raise CliError(f"cannot write reports under {out_dir}: {exc}") from exc
    print(f"{len(result.runs)} runs ok, {len(result.failures)} failed -> {out_dir}")
    return 0 if result.ok else 1


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    filter_path = Path(args.filter)
    if not filter_path.exists():
        raise CliError(f"filter file not found: {filter_path}")
    with _reported(f"invalid filter file {filter_path}"):
        filt = filter_from_json(json.loads(filter_path.read_text()))
    report = evaluate(_load_cohort(args, config).ear(args.subject), filt)
    out_dir = Path(_pick(args.out, config.get("out"), None) or _fail_out())
    name = f"eval_{args.subject}__dG{filt.config.device_delay}"
    with _reported(f"cannot write reports under {out_dir}"):
        out_dir.mkdir(parents=True, exist_ok=True)
        write_report(report, out_dir, name, f"{name}.csv", {})
    print(out_dir / f"{name}.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eqforge",
        description="Hear-through equalization: cohort synthesis, filter design, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output directory (or file for `design`)")
        p.add_argument("--seed", type=int, help="seed of a synthesized cohort (no manifest)")

    p_synth = sub.add_parser("synth", help="generate a synthetic ear cohort")
    common(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    def design_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--manifest", help="cohort manifest JSON (default: synthesize)")
        p.add_argument("--exclude-subject", help="drop this subject from the cohort")
        p.add_argument("--lambda", dest="lam", type=float, help="regularization trade-off")
        p.add_argument("--filter-length", type=int, help="equalizer taps (L_a)")
        p.add_argument("--lead", type=int, help="acausal lead in samples (L_d)")

    p_design = sub.add_parser("design", help="design one condition's filter for a subject")
    common(p_design)
    design_flags(p_design)
    p_design.add_argument("--subject", required=True)
    p_design.add_argument("--condition", required=True, choices=list(CONDITION_NAMES))
    p_design.add_argument("--delay", type=int, help="device processing delay d_G in samples")
    p_design.set_defaults(func=cmd_design)

    p_exp = sub.add_parser("experiment", help="run the full subject x condition x delay grid")
    common(p_exp)
    design_flags(p_exp)
    p_exp.add_argument("--conditions", type=_str_list, help="comma-separated condition names")
    p_exp.add_argument("--delays", type=_int_list, help="comma-separated d_G values")
    p_exp.set_defaults(func=cmd_experiment)

    p_eval = sub.add_parser("evaluate", help="re-simulate a stored filter on a subject")
    common(p_eval)
    p_eval.add_argument("--manifest", help="cohort manifest JSON (default: synthesize)")
    p_eval.add_argument("--subject", required=True)
    p_eval.add_argument("--filter", required=True, help="filter JSON written by `design`")
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        # Overflow and invalid arithmetic (from absurd input values) raise
        # FloatingPointError instead of warning and writing non-finite reports.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (CliError, ValueError, ArithmeticError, SingularSystemError) as exc:
        # A path or value quoted in the message may hold a line break.
        print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
