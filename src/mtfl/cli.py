"""Command-line entry point: train / score / eval / synth / gradcheck.

Every flag has a config-file equivalent (a JSON object whose keys are the
flag names with dashes replaced by underscores, passed via --config);
explicit flags win over the config file, which wins over defaults.
Exit codes: 0 success, 1 validation error, 2 runtime or I/O error.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
import warnings
from pathlib import Path

import numpy as np

from . import dataio, metrics, model, trainer
from .dataio import SynthConfig
from .model import ModelConfig
from .objective import LossWeights
from .trainer import TrainConfig


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _resolve(args, config: dict, name: str, default):
    """flag > config file > default. A config-file value is converted with
    the type argparse declares for the flag, or, for a key with no flag,
    the type of `default`."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        kind = args.flag_types.get(name, type(default))
        return _from_config(name, config[name], kind, default)
    return default


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


def _flag_type(action) -> type:
    """What a flag's value is: its argparse type, bool for a switch, or
    str."""
    if action.type is not None:
        return action.type
    return bool if action.const is True else str


def _load_config_file(args) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        return {}
    try:
        with open(path) as f:
            blob = json.load(f)
    except OSError as e:
        raise CliError(f"cannot read config file: {e}", code=2)
    except json.JSONDecodeError as e:
        raise CliError(f"config file is not valid JSON: {e}")
    if not isinstance(blob, dict):
        raise CliError("config file must hold a JSON object")
    return blob


def _model_config(args, cfg, d: int) -> ModelConfig:
    return ModelConfig(
        d=d,
        t=_resolve(args, cfg, "t", 32),
        heads=_resolve(args, cfg, "heads", 4),
        use_pfl=not _resolve(args, cfg, "disable_pfl", False),
        use_ltl=not _resolve(args, cfg, "disable_ltl", False),
        use_gtl=not _resolve(args, cfg, "disable_gtl", False),
        use_ff=not _resolve(args, cfg, "disable_ff", False),
        hidden=_resolve(args, cfg, "hidden", (512, 128)),
        dropout=_resolve(args, cfg, "dropout", 0.7),
    )


def _cmd_train(args):
    cfg_file = _load_config_file(args)
    manifest = _resolve(args, cfg_file, "manifest", None)
    out_dir = _resolve(args, cfg_file, "out_dir", None)
    if manifest is None or out_dir is None:
        raise CliError("train requires --manifest and --out-dir")
    seed = _resolve(args, cfg_file, "seed", None)
    if seed is None:
        seed = secrets.randbelow(2**31)
        print(f"seed={seed}")
    try:
        dataset = dataio.read_manifest(manifest, split="train")
    except (OSError, dataio.FormatError) as e:
        raise CliError(str(e), code=2)
    except (dataio.ManifestError, ValueError) as e:
        raise CliError(str(e))
    d = dataset.videos[0].dim

    loss = LossWeights(
        k=_resolve(args, cfg_file, "k", 3),
        margin=_resolve(args, cfg_file, "margin", 100.0),
        lambda_fm=_resolve(args, cfg_file, "lambda_fm", 1e-4),
        lambda1=_resolve(args, cfg_file, "lambda1", 8e-5),
        lambda2=_resolve(args, cfg_file, "lambda2", 8e-5),
    )
    batch_half = _resolve(args, cfg_file, "batch_half", 64)
    cfg = TrainConfig(
        model=_model_config(args, cfg_file, d),
        learning_rate=_resolve(args, cfg_file, "lr", 1e-4),
        weight_decay=_resolve(args, cfg_file, "weight_decay", 5e-4),
        batch_normal=batch_half,
        batch_abnormal=batch_half,
        epochs=_resolve(args, cfg_file, "epochs", 1000),
        seed=int(seed),
        loss=loss,
        checkpoint_every=_resolve(args, cfg_file, "checkpoint_every", 0),
    )
    try:
        cfg.validate()
    except ValueError as e:
        raise CliError(str(e))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        trainer.train(dataset, cfg, out_dir=out, log_path=out / "loss_log.csv")
    except OSError as e:
        raise CliError(str(e), code=2)
    print(f"checkpoint written to {out / 'final.mtfc'}")
    return 0


def _cmd_score(args):
    cfg_file = _load_config_file(args)
    ckpt_path = _resolve(args, cfg_file, "checkpoint", None)
    manifest = _resolve(args, cfg_file, "manifest", None)
    out_dir = _resolve(args, cfg_file, "out_dir", None)
    if ckpt_path is None or manifest is None or out_dir is None:
        raise CliError("score requires --checkpoint, --manifest and --out-dir")
    try:
        cfg, params, _ = trainer.load_checkpoint(ckpt_path)
        dataset = dataio.read_manifest(manifest, split="test")
    except (trainer.CheckpointError, dataio.FormatError, OSError) as e:
        raise CliError(str(e), code=2)
    except (dataio.ManifestError, ValueError) as e:
        raise CliError(str(e))
    if dataset.videos and dataset.videos[0].dim != cfg.model.d:
        raise CliError(f"{manifest}: features have D={dataset.videos[0].dim}, "
                       f"checkpoint {ckpt_path} expects D={cfg.model.d}")
    out = Path(out_dir)
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
    cfg_file = _load_config_file(args)
    scores_dir = _resolve(args, cfg_file, "scores_dir", None)
    manifest = _resolve(args, cfg_file, "manifest", None)
    if scores_dir is None or manifest is None:
        raise CliError("eval requires --scores-dir and --manifest")
    per_video = _resolve(args, cfg_file, "per_video", False)
    try:
        dataset = dataio.read_manifest(manifest, split="test")
        frame_scores = {v.video_id:
                        _read_curve_scores(Path(scores_dir) / f"{v.video_id}.csv")
                        for v in dataset.videos}
    except (OSError, dataio.FormatError) as e:
        raise CliError(str(e), code=2)
    except (dataio.ManifestError, ValueError) as e:
        raise CliError(str(e))
    try:
        report = metrics.evaluate(dataset.videos, frame_scores,
                                  per_video=per_video)
    except ValueError as e:
        raise CliError(str(e))
    for line in report.summary_lines():
        print(line)
    if per_video:
        for vid, entry in report.per_video.items():
            auc = entry.get("auc")
            ap = entry.get("ap")
            print(f"video {vid}: "
                  + (f"auc={auc:.6f} ap={ap:.6f}" if auc is not None
                     else "single-class frames"))
    return 0


def _cmd_synth(args):
    cfg_file = _load_config_file(args)
    out_dir = _resolve(args, cfg_file, "out_dir", None)
    if out_dir is None:
        raise CliError("synth requires --out-dir")
    n_normal = _resolve(args, cfg_file, "normal", 40)
    n_abnormal = _resolve(args, cfg_file, "abnormal", 40)
    cfg = SynthConfig(
        n_normal_train=n_normal,
        n_abnormal_train=n_abnormal,
        n_normal_test=_resolve(args, cfg_file, "test_normal",
                               max(1, n_normal // 4)),
        n_abnormal_test=_resolve(args, cfg_file, "test_abnormal",
                                 max(1, n_abnormal // 4)),
        d=_resolve(args, cfg_file, "d", 16),
        boost=_resolve(args, cfg_file, "boost", 3.0),
        noise_scale=_resolve(args, cfg_file, "noise", 1.0),
    )
    seed = _resolve(args, cfg_file, "seed", 0)
    try:
        cfg.validate()
    except ValueError as e:
        raise CliError(str(e))
    try:
        train_ds, test_ds = dataio.synth_generate(cfg, seed, out_dir=out_dir)
    except OSError as e:
        raise CliError(str(e), code=2)
    print(f"wrote {len(train_ds.videos)} train and {len(test_ds.videos)} "
          f"test videos to {out_dir}")
    return 0


def _cmd_gradcheck(args):
    cfg_file = _load_config_file(args)
    t = _resolve(args, cfg_file, "t", 8)
    d = _resolve(args, cfg_file, "d", 8)
    heads = _resolve(args, cfg_file, "heads", 2)
    seed = _resolve(args, cfg_file, "seed", 0)
    tol = _resolve(args, cfg_file, "tol", 1e-4)
    report = gradcheck_full_model(t=t, d=d, heads=heads, seed=seed, tol=tol)
    status = "PASS" if report.passed else "FAIL"
    print(f"max relative error {report.max_rel_error:.3e} "
          f"(worst {report.worst_coordinate or 'n/a'}): {status}")
    return 0 if report.passed else 1


def gradcheck_full_model(t=8, d=8, heads=2, seed=0, tol=1e-4, eps=1e-5,
                         hidden=(6, 4), k=2, margin=3.0):
    """Finite-difference check through the whole network plus the full
    four-term objective on a four-video batch, dropout off. The loss is
    built by `trainer.batch_loss`, the same function training runs."""
    from .diffcore import finite_diff_check
    from .model import MultiScaleFeatures

    mcfg = ModelConfig(d=d, t=t, heads=heads, hidden=hidden,
                       dropout=0.0).validate()
    weights = LossWeights(lambda_fm=0.05, lambda1=0.05, lambda2=0.05,
                          margin=margin, k=k)
    rng = np.random.default_rng(seed)
    labels = [0, 0, 1, 1]
    msf = MultiScaleFeatures(*(rng.standard_normal((len(labels), t, d))
                               for _ in range(3)))
    params = model.init_params(mcfg, seed)

    def build(p):
        total, _ = trainer.batch_loss(p, msf, labels, mcfg, weights, "eval",
                                      None)
        return total

    return finite_diff_check(build, params, eps=eps, tol=tol, seed=seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtfl", description="Multi-timescale anomaly detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file of flag defaults")

    p = sub.add_parser("train", help="train a model from a manifest")
    add_common(p)
    p.add_argument("--manifest")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--batch-half", dest="batch_half", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--lambda-fm", dest="lambda_fm", type=float)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--disable-pfl", dest="disable_pfl", action="store_const", const=True)
    p.add_argument("--disable-ltl", dest="disable_ltl", action="store_const", const=True)
    p.add_argument("--disable-gtl", dest="disable_gtl", action="store_const", const=True)
    p.add_argument("--disable-ff", dest="disable_ff", action="store_const", const=True)
    p.add_argument("--t", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score a manifest with a checkpoint")
    add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--manifest")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="frame-level AUC/AP from score curves")
    add_common(p)
    p.add_argument("--scores-dir", dest="scores_dir")
    p.add_argument("--manifest")
    p.add_argument("--per-video", dest="per_video", action="store_const", const=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(p)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--normal", type=int)
    p.add_argument("--abnormal", type=int)
    p.add_argument("--test-normal", dest="test_normal", type=int)
    p.add_argument("--test-abnormal", dest="test_abnormal", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--boost", type=float)
    p.add_argument("--noise", type=float)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    add_common(p)
    p.add_argument("--t", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_gradcheck)

    for p in sub.choices.values():
        p.set_defaults(flag_types={a.dest: _flag_type(a) for a in p._actions})
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except KeyboardInterrupt:
        return 2
    except (OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
