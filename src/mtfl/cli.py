"""Command-line entry point: train / score / eval / synth / gradcheck.

Every flag has a config-file equivalent (a JSON object whose keys are the
flag names with dashes replaced by underscores, passed via --config);
explicit flags win over the config file, which wins over defaults.
Exit codes: 0 success, 1 validation error, 2 runtime or I/O error; `run`
maps each exception kind to its code.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import secrets
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import dataio, metrics, model, trainer
from .container import FormatError, input_file
from .dataio import SynthConfig
from .diffcore import finite_diff_check
from .model import ModelConfig
from .objective import LossWeights
from .trainer import TrainConfig


class CliError(ValueError):
    """A usage or validation error the CLI finds itself (exit 1)."""


def _from_config(name: str, value, kind):
    """A config value by `trainer.from_json`, or a number flag's text."""
    if isinstance(value, str) and kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(value)
    try:
        return trainer.from_json(kind, value, name)
    except ValueError as e:
        raise CliError(f"config file: {e}") from None


def _commands(parser) -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of `parser`, by name."""
    return next(a for a in parser._actions if a.dest == "command").choices


def _config_keys(p: argparse.ArgumentParser) -> dict[str, type]:
    """The config-file keys subcommand `p` reads, each with the type of its
    value: every flag but --config and --help (a switch takes a bool), and
    every key set only by `set_defaults`: `hidden`, a ModelConfig field."""
    hints = get_type_hints(ModelConfig)
    keys = {k: hints[k] for k in p._defaults}
    for a in p._actions:
        if a.option_strings and a.dest not in ("help", "config"):
            keys[a.dest] = bool if a.nargs == 0 else a.type or str
    return keys


def parse_args(argv=None) -> argparse.Namespace:
    """Parse `argv`. With --config, the subcommand parses its arguments again
    into a namespace of the file's values: flag > config file > default. A
    key that no subcommand reads is an error; a key of another subcommand is
    ignored, so one file can serve several."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    with open(input_file(args.config), encoding="utf-8") as f:
        try:
            blob = json.load(f)
        except (ValueError, RecursionError) as e:  # not JSON, or not UTF-8
            raise CliError(f"config file {args.config} is not valid JSON: "
                           f"{e}") from None
    if not isinstance(blob, dict):
        raise CliError("config file must hold a JSON object")
    commands = _commands(parser)
    known = set().union(*map(_config_keys, commands.values()))
    unknown = sorted(set(blob) - known)
    if unknown:
        raise CliError(f"config file: unknown key(s) {', '.join(unknown)}")
    p = commands[args.command]
    keys = _config_keys(p)
    config = argparse.Namespace(command=args.command, **{
        name: _from_config(name, value, keys[name])
        for name, value in blob.items() if name in keys})
    return p.parse_args(argv[argv.index(args.command) + 1:], config)


def _cmd_train(args):
    if args.manifest is None or args.out_dir is None:
        raise CliError("train requires --manifest and --out-dir")
    seed = args.seed
    if seed is None:
        seed = secrets.randbelow(2**31)
        print(f"seed={seed}")
    dataset = dataio.read_dataset(args.manifest, split="train")
    cfg = TrainConfig(
        model=ModelConfig(
            d=dataset.videos[0].dim, t=args.t, heads=args.heads,
            use_pfl=not args.disable_pfl, use_ltl=not args.disable_ltl,
            use_gtl=not args.disable_gtl, use_ff=not args.disable_ff,
            hidden=args.hidden),
        learning_rate=args.lr,
        batch_half=args.batch_half,
        epochs=args.epochs,
        seed=seed,
        loss=LossWeights(k=args.k, margin=args.margin,
                         lambda_fm=args.lambda_fm, lambda1=args.lambda1,
                         lambda2=args.lambda2),
        checkpoint_every=args.checkpoint_every,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trainer.train(dataset, cfg, out_dir=out, log_path=out / "loss_log.csv")
    print(f"checkpoint written to {out / 'final.mtfc'}")
    return 0


def _cmd_score(args):
    if None in (args.checkpoint, args.manifest, args.out_dir):
        raise CliError("score requires --checkpoint, --manifest and --out-dir")
    cfg, params = trainer.load_checkpoint(args.checkpoint)
    dataset = dataio.read_dataset(args.manifest, split="test", t=cfg.model.t)
    if dataset.videos and dataset.videos[0].dim != cfg.model.d:
        raise CliError(f"{args.manifest}: features have "
                       f"D={dataset.videos[0].dim}, checkpoint "
                       f"{args.checkpoint} expects D={cfg.model.d}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Chunks of the training batch: each forward has a training step's shape.
    scores = trainer.score_videos(dataset.videos, params, cfg.model,
                                  2 * cfg.batch_half)
    numbers = metrics.frame_numbers(
        max((v.n_frames for v in dataset.videos), default=0))
    for v, snippet in zip(dataset.videos, scores):
        frames = metrics.expand_to_frames(snippet, v.n_frames)
        metrics.export_score_curve(v, frames, out / f"{v.video_id}.csv",
                                   numbers)
    print(f"wrote {len(dataset.videos)} score curves to {out}")
    return 0


def _cmd_eval(args):
    if args.scores_dir is None or args.manifest is None:
        raise CliError("eval requires --scores-dir and --manifest")
    dataset = dataio.read_manifest(args.manifest, split="test")
    if not dataset.videos:
        raise CliError(f"{args.manifest}: no videos to evaluate")
    scores_dir = Path(args.scores_dir)
    curves = (metrics.read_score_curve(scores_dir / f"{v.video_id}.csv")
              for v in dataset.videos)
    try:
        report = metrics.evaluate(dataset.videos, curves,
                                  per_video=args.per_video)
    except metrics.CurveError as e:
        raise ValueError(f"{scores_dir / e.video_id}.csv: {e}") from None
    except metrics.DegenerateLabelsError as e:  # frames of one class
        raise CliError(f"{args.manifest}: {e}") from None
    for line in report.summary_lines():
        print(line)
    for vid, entry in report.per_video.items():
        auc = entry.get("auc")
        ap = entry.get("ap")
        print(f"video {vid}: "
              + (f"auc={auc:.6f} ap={ap:.6f}" if auc is not None
                 else "single-class frames"))
    return 0


def _cmd_synth(args):
    if args.out_dir is None:
        raise CliError("synth requires --out-dir")
    cfg = SynthConfig(
        n_normal_train=args.normal,
        n_abnormal_train=args.abnormal,
        n_normal_test=max(1, args.normal // 4),
        n_abnormal_test=max(1, args.abnormal // 4),
        d=args.d,
    )
    train_ds, test_ds = dataio.synth_generate(cfg, args.seed,
                                              out_dir=args.out_dir)
    print(f"wrote {len(train_ds.videos)} train and {len(test_ds.videos)} "
          f"test videos to {args.out_dir}")
    return 0


def _cmd_gradcheck(args):
    report = gradcheck_full_model(d=args.d, seed=args.seed)
    status = "PASS" if report.passed else "FAIL"
    print(f"max relative error {report.max_rel_error:.3e} "
          f"(worst {report.worst_coordinate or 'n/a'}): {status}")
    return 0 if report.passed else 1


# What `gradcheck` runs with: a small classifier, snippets per video,
# attention heads and loss weights that let every term move the gradients.
# The central-difference step and the pass bar are `finite_diff_check`'s.
GRADCHECK_HIDDEN = (6, 4)
GRADCHECK_T = 8
GRADCHECK_HEADS = 2
GRADCHECK_LOSS = LossWeights(lambda_fm=0.05, lambda1=0.05, lambda2=0.05,
                             margin=3.0, k=2)


def gradcheck_point(mcfg: ModelConfig, seed: int):
    """The features of two normal, then two abnormal videos, and parameters
    whose biases are drawn from U(-0.3, 0.3): at their initial zeros a ReLU
    input can sit at its kink, where a central difference fails."""
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((3, 4, mcfg.t, mcfg.d))
    return feats, {
        name: rng.uniform(-0.3, 0.3, p.shape) if name.endswith("_b") else p
        for name, p in model.init_params(mcfg, seed).items()}


def gradcheck_full_model(d, seed):
    """Finite-difference check through the whole network plus the full
    four-term objective at `gradcheck_point`, dropout off. The loss is built
    by `trainer.batch_loss`, the same function training runs."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    mcfg = ModelConfig(d=d, t=GRADCHECK_T, heads=GRADCHECK_HEADS,
                       hidden=GRADCHECK_HIDDEN)
    feats, params = gradcheck_point(mcfg, seed)

    def build(p):
        return trainer.batch_loss(p, feats, mcfg, GRADCHECK_LOSS)[0]

    return finite_diff_check(build, params, seed=seed)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommands and their flags, built once and never changed. Each
    flag's default is written once: here, or in the config field the flag
    sets. `mtfl <command> --help` prints the defaults."""
    parser = argparse.ArgumentParser(
        prog="mtfl", description="Multi-timescale anomaly detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(
            name, help=help,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="JSON file of flag values")
        return p

    p = command("train", "train a model from a manifest")
    p.add_argument("--manifest", help="training manifest (required)")
    p.add_argument("--out-dir", help="checkpoint and loss-log directory "
                   "(required)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help="epochs")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   help="Adam step size")
    p.add_argument("--batch-half", type=int, default=TrainConfig.batch_half,
                   help="videos per class in a batch")
    p.add_argument("--seed", type=int,
                   help="drawn at random and printed if not given")
    p.add_argument("--k", type=int, default=LossWeights.k,
                   help="top-k snippets")
    p.add_argument("--margin", type=float, default=LossWeights.margin,
                   help="feature-magnitude margin")
    p.add_argument("--lambda-fm", type=float, default=LossWeights.lambda_fm,
                   help="feature-magnitude weight")
    p.add_argument("--lambda1", type=float, default=LossWeights.lambda1,
                   help="sparsity weight")
    p.add_argument("--lambda2", type=float, default=LossWeights.lambda2,
                   help="smoothness weight")
    for stage in ("pfl", "ltl", "gtl", "ff"):
        p.add_argument(f"--disable-{stage}", action="store_true",
                       help=f"bypass the {stage.upper()} stage")
    p.add_argument("--t", type=int, default=ModelConfig.t,
                   help="snippets per video")
    p.add_argument("--heads", type=int, default=ModelConfig.heads,
                   help="attention heads")
    p.add_argument("--checkpoint-every", type=int,
                   default=TrainConfig.checkpoint_every,
                   help="steps between checkpoints; 0: final only")
    p.set_defaults(hidden=ModelConfig.hidden)  # set by config file only

    p = command("score", "score a manifest with a checkpoint")
    p.add_argument("--checkpoint", help="checkpoint to score with (required)")
    p.add_argument("--manifest", help="manifest to score (required)")
    p.add_argument("--out-dir", help="score-curve directory (required)")

    p = command("eval", "frame-level AUC/AP from score curves")
    p.add_argument("--scores-dir", help="score-curve directory (required)")
    p.add_argument("--manifest", help="test manifest (required)")
    p.add_argument("--per-video", action="store_true",
                   help="also print AUC/AP per video")

    p = command("synth", "generate a synthetic dataset")
    p.add_argument("--out-dir", help="dataset directory (required)")
    p.add_argument("--normal", type=int, default=SynthConfig.n_normal_train,
                   help="normal training videos; max(1, normal // 4) "
                   "normal test videos")
    p.add_argument("--abnormal", type=int,
                   default=SynthConfig.n_abnormal_train,
                   help="abnormal training videos; max(1, abnormal // 4) "
                   "abnormal test videos")
    p.add_argument("--d", type=int, default=SynthConfig.d,
                   help="feature dimension")
    p.add_argument("--seed", type=int, default=0, help="generator seed")

    p = command("gradcheck", "finite-difference gradient check")
    p.add_argument("--d", type=int, default=8, help="feature dimension")
    p.add_argument("--seed", type=int, default=0, help="data and init seed")
    return parser


# glibc's mallopt parameters (malloc.h) and the values `run` sets.
_MALLOPT_SETTINGS = ((-3, 32 << 20),   # M_MMAP_THRESHOLD
                     (-1, 128 << 20))  # M_TRIM_THRESHOLD


@functools.cache
def _keep_freed_heap() -> bool:
    """Keep freed memory in the process, so that a training step reuses the
    last step's pages instead of faulting them in again: arrays up to
    32 MiB come from the heap, not from mmap, and a free heap top under
    128 MiB stays. Either setting alone still faults. True if libc took
    both; a libc without mallopt is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return all(mallopt(param, value) == 1
               for param, value in _MALLOPT_SETTINGS)


def run(argv=None) -> int:
    """Run one command: `_cmd_<command>`, looked up when it runs. Exception
    kinds map to exit codes here, and only here."""
    _keep_freed_heap()
    try:
        args = parse_args(argv)
        return globals()[f"_cmd_{args.command}"](args)
    except SystemExit as e:  # from argparse: --help, or a bad flag
        return 0 if e.code in (0, None) else 1
    except KeyboardInterrupt:
        return 2
    except (FormatError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy's names the size; Python's is empty
        print(f"error: out of memory: {e}".removesuffix(": "),
              file=sys.stderr)
        return 2
    except ValueError as e:  # so are CliError and ManifestError
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
