"""Command-line front end.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure,
3 training aborted on a non-finite loss.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, default_config, load_config, with_seed
from .data import export_corpus
from .plots import MalformedCsvError, export_plot
from .reports import PRESETS, run_preset
from .train import NanAbort, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_NAN = 3

# options that must be at least this wherever a command takes them
_MINIMUMS = {"count": 1, "samples": 1, "repeats": 1, "seed": 0}


def _add_common(p):
    p.add_argument("--config", type=Path, default=None,
                   help="JSON run config (defaults to the built-in desk-scale config)")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the corpus/model/training seeds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stlab",
                                     description="speech-translation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the multi-task training loop")
    _add_common(p)
    p.add_argument("--resume", type=Path, default=None,
                   help="checkpoint to resume from")
    p.add_argument("--steps", type=int, default=None,
                   help="override training.steps")

    p = sub.add_parser("analyze", help="consistency, entropy and shrink reports")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="seed of every probe batch and its noise")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("--checkpoint", type=Path, required=True,
                   help="checkpoint file to analyze (over-training: the run directory, "
                        "one point per checkpoint at the step its header records)")
    p.add_argument("--samples", type=int, default=32, help="probe batch size")
    p.add_argument("--repeats", type=int, default=5, help="probe repeats (shrink-eval: batches)")

    p = sub.add_parser("export-corpus", help="dump a synthetic corpus sample as JSONL")
    _add_common(p)
    p.add_argument("--count", type=int, default=100, help="number of samples")

    p = sub.add_parser("export-plots", help="render report CSVs to SVG charts")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("csv", type=Path, nargs="+", help="report CSV files")
    return parser


def _resolve_config(args):
    config = load_config(args.config) if args.config else default_config()
    return config if args.seed is None else with_seed(config, args.seed)


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    if args.steps is not None:
        import dataclasses
        config = dataclasses.replace(
            config, training=dataclasses.replace(config.training, steps=args.steps))
    result = train(config, args.out, resume_from=args.resume)
    print(f"trained {result.steps_run} steps -> {result.final_checkpoint}")
    print(f"st greedy accuracy {result.final_accuracy:.4f} "
          f"(copy baseline {result.copy_baseline:.4f})")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    paths = run_preset(args.preset, args.checkpoint, args.out,
                       n=args.samples, repeats=args.repeats, seed=args.seed)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_export_corpus(args) -> int:
    config = _resolve_config(args)
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "corpus.jsonl"
    export_corpus(config.corpus, args.count, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_export_plots(args) -> int:
    # every chart is drawn before --out is made: a bad CSV leaves nothing behind
    stems = [p.stem for p in args.csv]
    same = [str(p) for p in args.csv if stems.count(p.stem) > 1]
    if same:
        raise ConfigError(f"inputs with one file stem would write one chart: {' '.join(same)}")
    svgs = {args.out / (p.stem + ".svg"): export_plot(p) for p in args.csv}
    args.out.mkdir(parents=True, exist_ok=True)
    for out_path, svg in svgs.items():
        out_path.write_text(svg)
        print(f"wrote {out_path}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "analyze": _cmd_analyze,
    "export-corpus": _cmd_export_corpus,
    "export-plots": _cmd_export_plots,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, least in _MINIMUMS.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ConfigError(f"--{name} must be at least {least}, got {value}")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NanAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_NAN
    except (OSError, ValueError, RuntimeError, MalformedCsvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
