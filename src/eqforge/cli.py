"""Command-line front-end: cohort synthesis, filter design, experiments, evaluation.

Every value has one way in. Flags name the run: the output, the cohort's
`--manifest` (only `synth` synthesizes, from its `--seed`), the subject, the
condition and the device delay. The `--config` file holds the method, in the
one section its command reads: `synth` reads "synth" (generator parameters),
`design` and `experiment` read "design" (equalizer parameters), and `evaluate`
takes no config. `EQFORGE_LOG` (debug/info/warning/error) sets verbosity."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import os
import sys
from collections.abc import Callable
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from . import cohort as cohort_mod
from .conditions import CONDITION_NAMES, condition_named, design_for_condition, evaluate
from .design import (CONFIG_KEYS, config_from_json, filter_from_json, filter_to_json, json_typed,
                     known_keys)
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
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("eqforge").setLevel(level.upper())  # each call: basicConfig acts once


@contextlib.contextmanager
def _reported(what: str):
    """Turn a load, parse or validation failure into a one-line CliError."""
    try:
        yield
    except KeyError as exc:
        raise CliError(f"{what}: missing key {exc}") from exc
    except (ArithmeticError, OSError, RecursionError, TypeError, ValueError) as exc:
        raise CliError(f"{what}: {exc}") from exc


# The keys of the config section each command reads: "seed" is --seed, "d_G" --delay(s).
_SECTIONS = {"synth": {f.name for f in dataclasses.fields(cohort_mod.SynthCohortParams)} - {"seed"},
             "design": set(CONFIG_KEYS) - {"d_G"}}


def _read_input(path: Path, what: str, parse: Callable[[Path], Any]) -> Any:
    """`parse(path)`, with a missing file or a failed parse as one CliError."""
    if not path.exists():
        raise CliError(f"{what} not found: {path}")
    with _reported(f"invalid {what} {path}"):
        return parse(path)


def _config_section(args: argparse.Namespace) -> dict[str, Any]:
    """The command's section of the --config file ({} without one); any other key is an error."""
    def parse(path: Path) -> dict[str, Any]:
        config = json_typed("config", json.loads(path.read_text()), dict, "an object")
        known_keys(f"the config of `{args.command}`", config, (args.section,))
        section = json_typed(args.section, config.get(args.section, {}), dict, "an object")
        return known_keys(f'"{args.section}"', section, _SECTIONS[args.section])

    return {} if args.config is None else _read_input(args.config, "config file", parse)


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


def cmd_synth(args: argparse.Namespace) -> int:
    params = cohort_mod.params_from_json({**_config_section(args), "seed": args.seed})
    ears, dummy = cohort_mod.synth_cohort(params), cohort_mod.synth_dummy_ear(params)
    with _reported(f"cannot write cohort under {args.out}"):
        manifest = cohort_mod.save_cohort(ears, args.out, dummy=dummy, params=params)
    print(manifest)
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    cfg = dataclasses.replace(config_from_json(_config_section(args)), device_delay=args.delay)
    data = _read_input(args.manifest, "manifest", cohort_mod.load_manifest)
    filt = design_for_condition(data, args.subject, condition_named(args.condition), cfg)
    with _reported(f"cannot write {args.out}"):
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(filter_to_json(filt), indent=2) + "\n")
    print(args.out)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = config_from_json(_config_section(args))
    grid_request(args.conditions, args.delays, cfg)  # a bad request fails before the cohort loads
    data = _read_input(args.manifest, "manifest", cohort_mod.load_manifest)
    try:
        result = run_experiment(data, args.conditions, args.delays, cfg, args.out)
    except OSError as exc:
        raise CliError(f"cannot write reports under {args.out}: {exc}") from exc
    except BrokenExecutor as exc:  # a grid process was killed, by the OOM killer say
        raise CliError(f"the grid under {args.out} stopped: {exc}") from exc
    print(f"{len(result.runs)} runs ok, {len(result.failures)} failed -> {args.out}")
    return 1 if result.failures else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    filt = _read_input(args.filter, "filter file",
                       lambda path: filter_from_json(json.loads(path.read_text())))
    data = _read_input(args.manifest, "manifest", cohort_mod.load_manifest)
    report = evaluate(data.ear(args.subject), filt)
    name = f"eval_{args.subject}__dG{filt.config.device_delay}"
    with _reported(f"cannot write reports under {args.out}"):
        args.out.mkdir(parents=True, exist_ok=True)
        write_report(report, args.out, name, f"{name}.csv")
    print(args.out / f"{name}.json")
    return 0


@functools.cache  # one parser per process: parsing changes neither it nor its defaults
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eqforge",
        description="Hear-through equalization: cohort synthesis, filter design, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, section: str | None, manifest: bool = True) -> None:
        if section is not None:
            p.add_argument("--config", type=_nonempty_path,
                           help=f'JSON config file with a "{section}" section')
        p.add_argument("--out", required=True, type=_nonempty_path,
                       help="output directory (or file for `design`)")
        if manifest:
            p.add_argument("--manifest", required=True, type=_nonempty_path,
                           help="cohort manifest JSON, as `synth` writes it")
        p.set_defaults(section=section)

    p_synth = sub.add_parser("synth", help="generate a synthetic ear cohort")
    common(p_synth, "synth", manifest=False)
    p_synth.add_argument("--seed", type=int, default=cohort_mod.SynthCohortParams.seed,
                         help="seed of the synthesized cohort (default: %(default)s)")
    p_synth.set_defaults(func=cmd_synth)

    p_design = sub.add_parser("design", help="design one condition's filter for a subject")
    common(p_design, "design")
    p_design.add_argument("--subject", required=True)
    p_design.add_argument("--condition", required=True, choices=CONDITION_NAMES)
    p_design.add_argument("--delay", type=int, default=0,
                          help="device processing delay d_G in samples")
    p_design.set_defaults(func=cmd_design)

    p_exp = sub.add_parser("experiment", help="run the full subject x condition x delay grid")
    common(p_exp, "design")
    p_exp.add_argument("--conditions", type=_str_list, default=CONDITION_NAMES,
                       help="comma-separated condition names (default: all seven)")
    p_exp.add_argument("--delays", type=_int_list, default=DEFAULT_DELAYS,
                       help="comma-separated d_G values (default: 0,1,16,96)")
    p_exp.set_defaults(func=cmd_experiment)

    p_eval = sub.add_parser("evaluate", help="re-simulate a stored filter on a subject")
    common(p_eval, None)
    p_eval.add_argument("--subject", required=True)
    p_eval.add_argument("--filter", required=True, type=_nonempty_path,
                        help="filter JSON written by `design`")
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
