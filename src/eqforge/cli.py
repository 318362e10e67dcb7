"""Command-line front-end: cohort synthesis, filter design, experiments, evaluation.

Every value has one way in. Flags name the run: the output, the cohort (a
`--manifest`, or the `--seed` of a synthesized one), the subject, the
condition and the device delay. The `--config` file holds the method: a
"synth" section of generator parameters and a "design" section of equalizer
parameters. A command refuses a section it would not read, and a "synth"
section cannot go with `--manifest`. `EQFORGE_LOG` (debug/info/warning/error)
sets verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from . import cohort as cohort_mod
from .conditions import CONDITION_NAMES, condition_named, design_for_condition, evaluate
from .design import EqDesignConfig, config_from_json, filter_from_json, filter_to_json
from .design import json_typed, known_keys
from .experiment import DEFAULT_DELAYS, grid_request, run_experiment, write_report
from .solvers import SingularSystemError


class CliError(Exception):
    """User-facing failure; the message is printed and the exit code is 1."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors take `main`'s one error path."""

    def error(self, message: str) -> NoReturn:
        raise CliError(message)


def _setup_logging() -> None:
    level = os.environ.get("EQFORGE_LOG", "warning")
    if level.lower() not in ("debug", "info", "warning", "error"):
        raise CliError(f"EQFORGE_LOG must be one of debug, info, warning, error, got {level!r}")
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")


@contextlib.contextmanager
def _reported(what: str):
    """Turn a load, parse or validation failure into a one-line CliError."""
    try:
        yield
    except KeyError as exc:
        raise CliError(f"{what}: missing key {exc}") from exc
    except (ArithmeticError, OSError, RecursionError, TypeError, ValueError) as exc:
        raise CliError(f"{what}: {exc}") from exc


# The keys of each config section: "seed" is --seed, and "d_G" is --delay or --delays.
_SECTIONS = {"synth": ("n_subjects", "inear_mismatch_db", "model_error_db"),
             "design": ("L_a", "lambda", "L_d", "weighting")}


def _load_config(args: argparse.Namespace) -> tuple[cohort_mod.SynthCohortParams, EqDesignConfig]:
    """The config file's generator parameters, with --seed, and its design config."""
    config: dict[str, Any] = {}
    if args.config is not None:
        p = args.config
        if not p.exists():
            raise CliError(f"config file not found: {p}")
        with _reported(f"invalid config file {p}"):
            config = json_typed("config", json.loads(p.read_text()), dict, "an object")
            known_keys(f"the config of `{args.command}`", config, args.sections)
            for name, section in config.items():
                known_keys(f'"{name}"', json_typed(name, section, dict, "an object"),
                           _SECTIONS[name])
    if "synth" in config and getattr(args, "manifest", None) is not None:
        raise CliError('a "synth" section cannot go with --manifest: the cohort has one source')
    synth = dict(config.get("synth", {}))
    if args.seed is not None:
        synth["seed"] = args.seed
    # Both parsed now, so that a bad value fails before the cohort loads.
    return cohort_mod.params_from_json(synth), config_from_json(config.get("design", {}))


def _nonempty_path(text: str) -> Path:
    if not text:
        raise argparse.ArgumentTypeError("an empty path")
    return Path(text)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _load_cohort(args: argparse.Namespace,
                 params: cohort_mod.SynthCohortParams) -> cohort_mod.CohortData:
    if args.manifest is not None:
        path = Path(args.manifest)
        if not path.exists():
            raise CliError(f"manifest not found: {path}")
        with _reported(f"invalid manifest {path}"):
            return cohort_mod.load_manifest(path)
    return cohort_mod.CohortData.of(cohort_mod.synth_cohort(params),
                                    cohort_mod.synth_dummy_ear(params))


def cmd_synth(args: argparse.Namespace) -> int:
    params, _ = _load_config(args)
    ears, dummy = cohort_mod.synth_cohort(params), cohort_mod.synth_dummy_ear(params)
    with _reported(f"cannot write cohort under {args.out}"):
        manifest = cohort_mod.save_cohort(ears, args.out, dummy=dummy, params=params)
    print(manifest)
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    params, cfg = _load_config(args)
    cfg = dataclasses.replace(cfg, device_delay=args.delay)
    data = _load_cohort(args, params)
    filt = design_for_condition(data, args.subject, condition_named(args.condition), cfg)
    with _reported(f"cannot write {args.out}"):
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(filter_to_json(filt), indent=2) + "\n")
    print(args.out)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    params, cfg = _load_config(args)
    grid_request(args.conditions, args.delays, cfg)  # a bad request fails before the cohort loads
    data = _load_cohort(args, params)
    try:
        result = run_experiment(data, args.conditions, args.delays, cfg, args.out)
    except OSError as exc:
        raise CliError(f"cannot write reports under {args.out}: {exc}") from exc
    except BrokenExecutor as exc:  # a grid process was killed, by the OOM killer say
        raise CliError(f"the grid under {args.out} stopped: {exc}") from exc
    print(f"{len(result.runs)} runs ok, {len(result.failures)} failed -> {args.out}")
    return 1 if result.failures else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    params, _ = _load_config(args)
    filter_path = Path(args.filter)
    if not filter_path.exists():
        raise CliError(f"filter file not found: {filter_path}")
    with _reported(f"invalid filter file {filter_path}"):
        filt = filter_from_json(json.loads(filter_path.read_text()))
    report = evaluate(_load_cohort(args, params).ear(args.subject), filt)
    name = f"eval_{args.subject}__dG{filt.config.device_delay}"
    with _reported(f"cannot write reports under {args.out}"):
        args.out.mkdir(parents=True, exist_ok=True)
        write_report(report, args.out, name, f"{name}.csv")
    print(args.out / f"{name}.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eqforge",
        description="Hear-through equalization: cohort synthesis, filter design, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *sections: str, manifest: bool = True) -> None:
        p.add_argument("--config", type=_nonempty_path,
                       help=f"JSON config file; sections: {', '.join(sections)}")
        p.add_argument("--out", required=True, type=_nonempty_path,
                       help="output directory (or file for `design`)")
        cohort = p.add_mutually_exclusive_group()
        cohort.add_argument("--seed", type=int, help="seed of a synthesized cohort")
        if manifest:
            cohort.add_argument("--manifest", help="cohort manifest JSON (default: synthesize)")
        p.set_defaults(sections=sections)

    p_synth = sub.add_parser("synth", help="generate a synthetic ear cohort")
    common(p_synth, "synth", manifest=False)
    p_synth.set_defaults(func=cmd_synth)

    p_design = sub.add_parser("design", help="design one condition's filter for a subject")
    common(p_design, "synth", "design")
    p_design.add_argument("--subject", required=True)
    p_design.add_argument("--condition", required=True, choices=list(CONDITION_NAMES))
    p_design.add_argument("--delay", type=int, default=0,
                          help="device processing delay d_G in samples")
    p_design.set_defaults(func=cmd_design)

    p_exp = sub.add_parser("experiment", help="run the full subject x condition x delay grid")
    common(p_exp, "synth", "design")
    p_exp.add_argument("--conditions", type=_str_list, default=list(CONDITION_NAMES),
                       help="comma-separated condition names (default: all seven)")
    p_exp.add_argument("--delays", type=_int_list, default=list(DEFAULT_DELAYS),
                       help="comma-separated d_G values (default: 0,1,16,96)")
    p_exp.set_defaults(func=cmd_experiment)

    p_eval = sub.add_parser("evaluate", help="re-simulate a stored filter on a subject")
    common(p_eval, "synth")
    p_eval.add_argument("--subject", required=True)
    p_eval.add_argument("--filter", required=True, help="filter JSON written by `design`")
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        # Overflow and invalid arithmetic (from absurd input values) raise
        # FloatingPointError instead of warning and writing non-finite reports.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (CliError, ValueError, ArithmeticError, SingularSystemError) as exc:
        # A path or value quoted in the message may hold a line break.
        print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
