"""Command-line experiment runner.

One subcommand per experiment family (e1.1, e1.2, e1.3, e2), plus infogain
and a free-form custom run. Exit codes: 0 success, 2 configuration error,
3 parse error, 4 I/O error, 5 a worker process died, 130 interrupted.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .dataset import read_kdd_file
from .dca import DcaConfig
from .errors import ConfigurationError, ParseError, ReportError, WorkerError
from .experiments import ExperimentConfig, emit_infogain, run_experiment
from .nsa import NsaParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_IO = 4
EXIT_WORKER = 5
EXIT_INTERRUPTED = 130


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("data_path", metavar="data", type=Path,
                        help="KDD-format data file (plain or gzip)")
    parser.add_argument("--out", dest="output_dir", type=Path,
                        default=Path("results"),
                        help="output directory (default: results/)")
    parser.add_argument("--seeds", type=_int_list,
                        help="comma-separated seed list")
    parser.add_argument("--ranges", dest="range_config_path", type=Path,
                        help="attribute range configuration file")
    parser.add_argument("-v", "--verbose", action="count", default=0)


def _add_dca_params(parser: argparse.ArgumentParser) -> None:
    """The flags of the E1 families, the ones that run the DCA."""
    parser.add_argument("--population", dest="population_size", type=int)
    parser.add_argument("--cells-per-step", type=int)
    parser.add_argument("--threshold-low", type=float)
    parser.add_argument("--threshold-high", type=float)
    parser.add_argument("--mcav-threshold", type=float)


def _add_nsa_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--self-radius", type=float)
    parser.add_argument("--detector-radius", type=float)
    parser.add_argument("--detectors", dest="detector_count", type=int)
    parser.add_argument("--folds", type=int)
    parser.add_argument("--fold-seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    """Experiment flags are named after the config fields they set and have
    no default of their own (``--out`` aside): a flag left out keeps the
    field's default on ``ExperimentConfig``, ``DcaConfig`` or
    ``NsaParams``."""
    parser = argparse.ArgumentParser(
        prog="dca-ids",
        description="Immune-inspired intrusion-detection experiments on "
                    "KDD-format connection data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment(name: str, experiment_id: str,
                   help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help,
                           argument_default=argparse.SUPPRESS)
        p.set_defaults(experiment=experiment_id)
        _add_common(p)
        return p

    _add_dca_params(experiment("e1.1", "E1.1", "base cell-population run"))

    p = experiment("e1.2", "E1.2", "antigen multiplier sweep")
    _add_dca_params(p)
    p.add_argument("--multipliers", type=_int_list)

    p = experiment("e1.3", "E1.3", "moving-window sweep")
    _add_dca_params(p)
    p.add_argument("--windows", type=_int_list)

    p = experiment("e2", "E2", "negative-selection dimensionality sweep")
    _add_nsa_params(p)
    p.add_argument("--dimensions", type=_int_list)

    p = experiment("custom", "custom", "single run with explicit parameters")
    _add_dca_params(p)
    p.add_argument("--multiplier", type=int)
    p.add_argument("--window", type=int)

    p = sub.add_parser("infogain", help="attribute information-gain report")
    p.add_argument("data", type=Path)
    p.add_argument("--out", type=Path, default=Path("infogain.tsv"))
    p.add_argument("-v", "--verbose", action="count", default=0)

    return parser


def _from_args(cls, args: argparse.Namespace, **given):
    """``cls`` built from the parsed flags named after its fields; the
    fields no flag set keep their defaults."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names},
               **given)


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    return _from_args(ExperimentConfig, args,
                      dca=_from_args(DcaConfig, args),
                      nsa=_from_args(NsaParams, args))


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
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
