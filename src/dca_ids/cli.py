"""Command-line experiment runner.

One subcommand per experiment family (e1.1, e1.2, e1.3, e2), plus infogain
and a free-form custom run. Exit codes: 0 success, 2 configuration error,
3 parse error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .dataset import read_kdd_file
from .dca import DcaConfig
from .errors import ConfigurationError, ParseError, ReportError
from .experiments import (
    DEFAULT_DIMENSIONS,
    DEFAULT_MULTIPLIERS,
    DEFAULT_SEEDS,
    DEFAULT_WINDOWS,
    ExperimentConfig,
    emit_infogain,
    run_experiment,
)
from .nsa import NsaParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_IO = 4


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("data", type=Path, help="KDD-format data file "
                        "(plain or gzip)")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory (default: results/)")
    parser.add_argument("--seeds", type=_int_list, default=DEFAULT_SEEDS,
                        help="comma-separated seed list (default: 1..10)")
    parser.add_argument("--ranges", type=Path, default=None,
                        help="attribute range configuration file")
    parser.add_argument("--no-mcav-tables", action="store_true",
                        help="skip per-run MCAV table files")
    parser.add_argument("-v", "--verbose", action="count", default=0)


def _add_dca_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--population", type=int, default=100)
    parser.add_argument("--cells-per-step", type=int, default=10)
    parser.add_argument("--threshold-low", type=float, default=100.0)
    parser.add_argument("--threshold-high", type=float, default=300.0)
    parser.add_argument("--mcav-threshold", type=float, default=0.8)


def _add_nsa_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--self-radius", type=float, default=0.1)
    parser.add_argument("--detector-radius", type=float, default=0.1)
    parser.add_argument("--detectors", type=int, default=1000)
    parser.add_argument("--max-attempts", type=int, default=None)
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--fold-seed", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dca-ids",
        description="Immune-inspired intrusion-detection experiments on "
                    "KDD-format connection data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("e1.1", help="base cell-population run")
    _add_common(p)
    _add_dca_params(p)

    p = sub.add_parser("e1.2", help="antigen multiplier sweep")
    _add_common(p)
    _add_dca_params(p)
    p.add_argument("--multipliers", type=_int_list,
                   default=DEFAULT_MULTIPLIERS)

    p = sub.add_parser("e1.3", help="moving-window sweep")
    _add_common(p)
    _add_dca_params(p)
    p.add_argument("--windows", type=_int_list, default=DEFAULT_WINDOWS)

    p = sub.add_parser("e2", help="negative-selection dimensionality sweep")
    _add_common(p)
    _add_nsa_params(p)
    p.add_argument("--dimensions", type=_int_list, default=DEFAULT_DIMENSIONS)

    p = sub.add_parser("custom", help="single run with explicit parameters")
    _add_common(p)
    _add_dca_params(p)
    p.add_argument("--multiplier", type=int, default=1)
    p.add_argument("--window", type=int, default=1)

    p = sub.add_parser("infogain", help="attribute information-gain report")
    p.add_argument("data", type=Path)
    p.add_argument("--out", type=Path, default=Path("infogain.tsv"))
    p.add_argument("-v", "--verbose", action="count", default=0)

    return parser


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    dca = DcaConfig()
    if hasattr(args, "population"):
        dca = DcaConfig(
            population_size=args.population,
            cells_per_step=args.cells_per_step,
            threshold_low=args.threshold_low,
            threshold_high=args.threshold_high,
            mcav_threshold=args.mcav_threshold,
        )
    nsa = NsaParams()
    if hasattr(args, "self_radius"):
        nsa = NsaParams(
            self_radius=args.self_radius,
            detector_radius=args.detector_radius,
            detector_count=args.detectors,
            max_attempts=args.max_attempts,
        )

    experiment = {
        "e1.1": "E1.1", "e1.2": "E1.2", "e1.3": "E1.3",
        "e2": "E2", "custom": "custom",
    }[args.command]

    if args.command == "custom":
        dca = dataclasses.replace(
            dca, multiplier=args.multiplier, window=args.window
        )

    # Sweep options exist only on their own subcommands; the rest keep the
    # config's defaults.
    sweeps = {name: getattr(args, name) for name in (
        "multipliers", "windows", "dimensions", "folds", "fold_seed",
    ) if hasattr(args, name)}
    return ExperimentConfig(
        experiment=experiment,
        data_path=args.data,
        output_dir=args.out,
        seeds=tuple(args.seeds),
        dca=dca,
        nsa=nsa,
        range_config_path=args.ranges,
        write_mcav_tables=not args.no_mcav_tables,
        **sweeps,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")

    try:
        if args.command == "infogain":
            emit_infogain(read_kdd_file(args.data), args.out)
        else:
            run_experiment(_experiment_config(args))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ReportError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
