"""Command-line entry point: train / score / eval / synth / gradcheck.

Every flag has a config-file equivalent (a JSON object whose keys are the
flag names with dashes replaced by underscores, passed via --config);
explicit flags win over the config file, which wins over defaults.
Exit codes: 0 success, 1 validation error, 2 runtime or I/O error; `run`
maps each exception kind to its code.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import secrets
import sys
import warnings
from pathlib import Path

import numpy as np

from . import dataio, metrics, model, trainer
from .container import FormatError
from .dataio import ManifestError, SynthConfig
from .diffcore import finite_diff_check
from .model import ModelConfig, MultiScaleFeatures
from .objective import LossWeights
from .trainer import TrainConfig


class CliError(ValueError):
    """A usage or validation error the CLI finds itself (exit 1)."""


def _from_config(name: str, value, kind, default):
    """Convert a JSON config value as argparse converts the flag's text;
    a value of the wrong type is a validation error."""
    try:
        if kind is tuple:
            if isinstance(value, list):
                return tuple(_from_config(name, v, type(d), d)
                             for v, d in zip(value, default, strict=True))
        elif kind in (bool, str):
            if isinstance(value, kind):
                return value
        else:
            return kind(value if isinstance(value, str) else json.dumps(value))
    except (TypeError, ValueError):
        pass
    raise CliError(f"config file: {name} must be {kind.__name__}, "
                   f"got {json.dumps(value)}")


def _commands(parser) -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of `parser`, by name."""
    return next(a for a in parser._actions if a.dest == "command").choices


def _config_keys(p: argparse.ArgumentParser) -> dict[str, type]:
    """The config-file keys subcommand `p` reads, each with the type of its
    value: every flag but --config and --help (a switch takes a bool), and
    every key set only by `set_defaults`, such as `hidden`."""
    keys = {k: type(v) for k, v in p._defaults.items() if k != "func"}
    for a in p._actions:
        if a.option_strings and a.dest not in ("help", "config"):
            keys[a.dest] = bool if a.nargs == 0 else a.type or str
    return keys


def parse_args(argv=None) -> argparse.Namespace:
    """Parse `argv`. With --config, parse it again with the file's values
    as the subcommand's defaults: flag > config file > default. A key that
    no subcommand reads is an error; a key of another subcommand is
    ignored, so one file can serve several."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    with open(args.config) as f:
        try:
            blob = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
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
    p.set_defaults(**{name: _from_config(name, value, keys[name],
                                         p.get_default(name))
                      for name, value in blob.items() if name in keys})
    return parser.parse_args(argv)


def _cmd_train(args):
    if args.manifest is None or args.out_dir is None:
        raise CliError("train requires --manifest and --out-dir")
    seed = args.seed
    if seed is None:
        seed = secrets.randbelow(2**31)
        print(f"seed={seed}")
    dataset = dataio.read_manifest(args.manifest, split="train")
    cfg = TrainConfig(
        model=ModelConfig(
            d=dataset.videos[0].dim, t=args.t, heads=args.heads,
            use_pfl=not args.disable_pfl, use_ltl=not args.disable_ltl,
            use_gtl=not args.disable_gtl, use_ff=not args.disable_ff,
            hidden=args.hidden, dropout=args.dropout),
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
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
    cfg, params, _ = trainer.load_checkpoint(args.checkpoint)
    dataset = dataio.read_manifest(args.manifest, split="test")
    if dataset.videos and dataset.videos[0].dim != cfg.model.d:
        raise CliError(f"{args.manifest}: features have "
                       f"D={dataset.videos[0].dim}, checkpoint "
                       f"{args.checkpoint} expects D={cfg.model.d}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for v in dataset.videos:
        snippet = trainer.score_video(v, params, cfg.model)
        frames = metrics.expand_to_frames(snippet, v.n_frames)
        metrics.export_score_curve(v, frames, out / f"{v.video_id}.csv")
    print(f"wrote {len(dataset.videos)} score curves to {out}")
    return 0


def _read_curve_scores(path) -> np.ndarray:
    """The score column of a `frame,score,gt` curve file, one value per
    line that is not blank or whitespace-only.

    numpy parses a well-formed file in one call. A file it rejects is read
    again by `_read_curve_lines`, which defines the format: it accepts
    what numpy accepts, and more (whitespace-only lines, Unicode digits),
    and names the first line it cannot read.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty file
            return np.loadtxt(path, delimiter=",", usecols=1, ndmin=1,
                              comments=None, dtype=np.float64)
    except ValueError:
        return _read_curve_lines(path)


def _read_curve_lines(path) -> np.ndarray:
    try:
        lines = Path(path).read_text().split("\n")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    scores = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            scores.append(float(line.split(",")[1].strip()))
        except (IndexError, ValueError):
            raise ValueError(f"{path}:{lineno}: expected frame,score,gt, "
                             f"got {line[:40]!r}") from None
    return np.array(scores, dtype=np.float64)


def _cmd_eval(args):
    if args.scores_dir is None or args.manifest is None:
        raise CliError("eval requires --scores-dir and --manifest")
    dataset = dataio.read_manifest(args.manifest, split="test")
    frame_scores = {v.video_id: _read_curve_scores(
        Path(args.scores_dir) / f"{v.video_id}.csv") for v in dataset.videos}
    report = metrics.evaluate(dataset.videos, frame_scores,
                              per_video=args.per_video)
    for line in report.summary_lines():
        print(line)
    if args.per_video:
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
    test_normal, test_abnormal = args.test_normal, args.test_abnormal
    if test_normal is None:
        test_normal = max(1, args.normal // 4)
    if test_abnormal is None:
        test_abnormal = max(1, args.abnormal // 4)
    cfg = SynthConfig(
        n_normal_train=args.normal,
        n_abnormal_train=args.abnormal,
        n_normal_test=test_normal,
        n_abnormal_test=test_abnormal,
        d=args.d,
        boost=args.boost,
        noise_scale=args.noise,
    )
    train_ds, test_ds = dataio.synth_generate(cfg, args.seed,
                                              out_dir=args.out_dir)
    print(f"wrote {len(train_ds.videos)} train and {len(test_ds.videos)} "
          f"test videos to {args.out_dir}")
    return 0


def _cmd_gradcheck(args):
    report = gradcheck_full_model(t=args.t, d=args.d, heads=args.heads,
                                  seed=args.seed, tol=args.tol)
    status = "PASS" if report.passed else "FAIL"
    print(f"max relative error {report.max_rel_error:.3e} "
          f"(worst {report.worst_coordinate or 'n/a'}): {status}")
    return 0 if report.passed else 1


# What `gradcheck` runs with: a small classifier, loss weights that let every
# term move the gradients, and the central-difference step.
GRADCHECK_HIDDEN = (6, 4)
GRADCHECK_LOSS = LossWeights(lambda_fm=0.05, lambda1=0.05, lambda2=0.05,
                             margin=3.0, k=2)
GRADCHECK_EPS = 1e-5


def gradcheck_full_model(t, d, heads, seed, tol):
    """Finite-difference check through the whole network plus the full
    four-term objective on a four-video batch, dropout off. The loss is
    built by `trainer.batch_loss`, the same function training runs."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    mcfg = ModelConfig(d=d, t=t, heads=heads, hidden=GRADCHECK_HIDDEN,
                       dropout=0.0)
    rng = np.random.default_rng(seed)
    labels = [0, 0, 1, 1]
    msf = MultiScaleFeatures(*(rng.standard_normal((len(labels), t, d))
                               for _ in range(3)))
    params = model.init_params(mcfg, seed)

    def build(p):
        total, _ = trainer.batch_loss(p, msf, labels, mcfg, GRADCHECK_LOSS)
        return total

    return finite_diff_check(build, params, eps=GRADCHECK_EPS, tol=tol,
                             seed=seed)


def build_parser() -> argparse.ArgumentParser:
    """The subcommands and their flags. Each flag's default is written once:
    here, or in the config field the flag sets. `mtfl <command> --help`
    prints the defaults."""
    parser = argparse.ArgumentParser(
        prog="mtfl", description="Multi-timescale anomaly detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(
            name, help=help,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="JSON file of flag values")
        p.set_defaults(func=func)
        return p

    p = command("train", _cmd_train, "train a model from a manifest")
    p.add_argument("--manifest", help="training manifest (required)")
    p.add_argument("--out-dir", help="checkpoint and loss-log directory "
                   "(required)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help="epochs")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   help="Adam step size")
    p.add_argument("--weight-decay", type=float,
                   default=TrainConfig.weight_decay,
                   help="decoupled weight decay")
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
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout,
                   help="classifier dropout rate")
    p.add_argument("--checkpoint-every", type=int,
                   default=TrainConfig.checkpoint_every,
                   help="steps between checkpoints; 0: final only")
    p.set_defaults(hidden=ModelConfig.hidden)  # set by config file only

    p = command("score", _cmd_score, "score a manifest with a checkpoint")
    p.add_argument("--checkpoint", help="checkpoint to score with (required)")
    p.add_argument("--manifest", help="manifest to score (required)")
    p.add_argument("--out-dir", help="score-curve directory (required)")

    p = command("eval", _cmd_eval, "frame-level AUC/AP from score curves")
    p.add_argument("--scores-dir", help="score-curve directory (required)")
    p.add_argument("--manifest", help="test manifest (required)")
    p.add_argument("--per-video", action="store_true",
                   help="also print AUC/AP per video")

    p = command("synth", _cmd_synth, "generate a synthetic dataset")
    p.add_argument("--out-dir", help="dataset directory (required)")
    p.add_argument("--normal", type=int, default=SynthConfig.n_normal_train,
                   help="normal training videos")
    p.add_argument("--abnormal", type=int,
                   default=SynthConfig.n_abnormal_train,
                   help="abnormal training videos")
    p.add_argument("--test-normal", type=int,
                   help="normal test videos; max(1, normal // 4) "
                   "if not given")
    p.add_argument("--test-abnormal", type=int,
                   help="abnormal test videos; max(1, abnormal // 4) "
                   "if not given")
    p.add_argument("--d", type=int, default=SynthConfig.d,
                   help="feature dimension")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--boost", type=float, default=SynthConfig.boost,
                   help="anomaly mean shift")
    p.add_argument("--noise", type=float, default=SynthConfig.noise_scale,
                   help="noise scale")

    p = command("gradcheck", _cmd_gradcheck,
                "finite-difference gradient check")
    p.add_argument("--t", type=int, default=8, help="snippets per video")
    p.add_argument("--d", type=int, default=8, help="feature dimension")
    p.add_argument("--heads", type=int, default=2, help="attention heads")
    p.add_argument("--seed", type=int, default=0, help="data and init seed")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="largest relative error that passes")
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
    """Run one command. Exception kinds map to exit codes here, and only
    here."""
    _keep_freed_heap()
    try:
        args = parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # from argparse: --help, or a bad flag
        return 0 if e.code in (0, None) else 1
    except KeyboardInterrupt:
        return 2
    except (FormatError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ManifestError, ValueError) as e:  # CliError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
