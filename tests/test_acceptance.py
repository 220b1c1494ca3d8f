"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. The synthetic end-to-end runs take a few minutes total.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mtfl import container, dataio, metrics, model, trainer
from mtfl.cli import gradcheck_full_model, run
from mtfl.dataio import SynthConfig, synth_generate
from mtfl.metrics import average_precision, roc_auc
from mtfl.model import ModelConfig, MultiScaleFeatures
from mtfl.objective import LossWeights
from mtfl.trainer import TrainConfig, load_checkpoint, save_checkpoint, train

from test_metrics import brute_force_ap, brute_force_auc
from test_model import record_attention


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def synth_pipeline(tmp_path_factory):
    """Criterion 3 pipeline: synth 40+40/10+10 seed 42, train 200 epochs."""
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "data"
    out = root / "run"
    scores = root / "scores"
    t0 = time.time()
    assert run(["synth", "--out-dir", str(data), "--normal", "40",
                "--abnormal", "40", "--d", "16", "--seed", "42"]) == 0
    assert run(["train", "--manifest", str(data / "train_manifest.csv"),
                "--out-dir", str(out), "--epochs", "200", "--lr", "1e-3",
                "--batch-half", "8", "--seed", "42"]) == 0
    assert run(["score", "--checkpoint", str(out / "final.mtfc"),
                "--manifest", str(data / "test_manifest.csv"),
                "--out-dir", str(scores)]) == 0
    return {"data": data, "out": out, "scores": scores,
            "runtime": time.time() - t0}


def eval_auc(data, scores_dir):
    test_ds = dataio.read_manifest(data / "test_manifest.csv", split="test")
    frame_scores = {
        v.video_id: np.array([
            float(line.split(",")[1])
            for line in (scores_dir / f"{v.video_id}.csv").read_text().splitlines()])
        for v in test_ds.videos}
    return metrics.evaluate(test_ds.videos, frame_scores).auc


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    r = gradcheck_full_model(t=8, d=8, heads=2, seed=0, tol=1e-4)
    elapsed = time.time() - t0
    report(1, r.passed and elapsed < 60,
           f"max rel err {r.max_rel_error:.2e} in {elapsed:.1f}s")


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(20240817)
    worst_auc = worst_ap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        scores = rng.integers(0, 6, size=n) / 5.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst_auc = max(worst_auc, abs(roc_auc(scores, labels)
                                       - brute_force_auc(scores, labels)))
        worst_ap = max(worst_ap, abs(average_precision(scores, labels)
                                     - brute_force_ap(scores, labels)))
    report(2, worst_auc <= 1e-12 and worst_ap <= 1e-12,
           f"worst |ΔAUC|={worst_auc:.1e}, worst |ΔAP|={worst_ap:.1e}")


def test_criterion_3_synthetic_end_to_end(synth_pipeline):
    trained_auc = eval_auc(synth_pipeline["data"], synth_pipeline["scores"])

    # untrained model on the same split
    data = synth_pipeline["data"]
    test_ds = dataio.read_manifest(data / "test_manifest.csv", split="test")
    mcfg = ModelConfig(d=16)
    params = model.init_params(mcfg, 42)
    frame_scores = {v.video_id: metrics.expand_to_frames(
        trainer.score_video(v, params, mcfg), v.n_frames)
        for v in test_ds.videos}
    untrained_auc = metrics.evaluate(test_ds.videos, frame_scores).auc

    ok = (trained_auc >= 0.95 and 0.35 <= untrained_auc <= 0.65
          and synth_pipeline["runtime"] < 600)
    report(3, ok, f"trained AUC={trained_auc:.4f}, "
                  f"untrained AUC={untrained_auc:.4f}, "
                  f"runtime={synth_pipeline['runtime']:.0f}s")


def _small_training(log_path, epochs=3):
    cfg = SynthConfig(n_normal_train=6, n_abnormal_train=6,
                      n_normal_test=2, n_abnormal_test=2, d=8,
                      frames_range=(64, 128))
    ds, _ = synth_generate(cfg, 9)
    tcfg = TrainConfig(model=ModelConfig(d=8, t=8, heads=2, hidden=(6, 4)),
                       epochs=epochs, batch_half=4,
                       seed=5, loss=LossWeights(k=2, margin=4.0))
    return train(ds, tcfg, log_path=log_path)


def test_criterion_4_determinism(tmp_path):
    p_a, _, log_a = _small_training(tmp_path / "a.csv")
    p_b, _, log_b = _small_training(tmp_path / "b.csv")
    max_dev = max(abs(a[1].total - b[1].total) for a, b in zip(log_a, log_b))
    params_equal = (p_a.keys() == p_b.keys()
                    and all(np.array_equal(p_a[k], p_b[k]) for k in p_a))
    logs_equal = ((tmp_path / "a.csv").read_bytes()
                  == (tmp_path / "b.csv").read_bytes())
    report(4, max_dev <= 1e-12 and params_equal and logs_equal,
           f"max per-step log deviation {max_dev:.1e}, "
           f"params bit-identical: {params_equal}, "
           f"loss logs byte-identical: {logs_equal}")


def test_criterion_5_loss_decomposition():
    cfg = SynthConfig(n_normal_train=4, n_abnormal_train=4,
                      n_normal_test=1, n_abnormal_test=1, d=8,
                      frames_range=(64, 128))
    ds, _ = synth_generate(cfg, 3)
    tcfg = TrainConfig(model=ModelConfig(d=8, t=8, heads=2, hidden=(6, 4)),
                       epochs=2, batch_half=2, seed=1,
                       loss=LossWeights(k=2, margin=4.0, lambda_fm=0.0,
                                        lambda1=0.0, lambda2=0.0))
    _, _, log = train(ds, tcfg)
    decomposed = all(b.total == b.bce for _, b in log)

    from mtfl.diffcore import Tape
    from mtfl.objective import temporal_regularizers
    tape = Tape()
    s = tape.leaf(np.full((32, 1), 0.5))
    sp, sm = temporal_regularizers(s)
    analytic = (np.isclose(sp.value[0, 0], 16.0, atol=1e-12)
                and sm.value[0, 0] == 0.0)
    report(5, decomposed and analytic,
           f"total==bce at all {len(log)} steps; "
           f"sparsity(c=0.5,T=32)={sp.value[0, 0]}, smoothness={sm.value[0, 0]}")


def test_criterion_6_shape_and_attention_invariants(monkeypatch):
    attention = record_attention(monkeypatch)
    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(100):
        t = int(rng.choice([8, 16, 32]))
        d = int(rng.choice([8, 16, 32]))
        heads = int(rng.choice([h for h in (1, 2, 4) if (d // 2) % h == 0]))
        cfg = ModelConfig(d=d, t=t, heads=heads, hidden=(6, 4))
        params = model.init_params(cfg, int(rng.integers(0, 2**31)))
        msf = MultiScaleFeatures(
            f_s=rng.standard_normal((t, d)), f_m=rng.standard_normal((t, d)),
            f_l=rng.standard_normal((t, d)))
        from mtfl.diffcore import Tape
        tape = Tape()
        leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
        attention.clear()
        _, x, scores = model.forward(msf, leaves, cfg)
        assert x.value.shape == (t, d)
        assert scores.value.shape == (t, 1)
        assert np.all((scores.value > 0) & (scores.value < 1))
        # the softmax of PFL lm, ms, sl, then GTL, as the forward ran them
        assert [a.shape for a in attention] == [(heads, t, t)] * 4
        for a in attention:
            assert np.allclose(a.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        # internal stage shapes per the fusion design
        f_s, f_m, f_l = (tape.constant(m) for m in (msf.f_s, msf.f_m, msf.f_l))
        f_lm, f_ms, f_sl = model.pfl_forward(f_l, f_m, f_s, leaves, cfg)
        assert f_lm.value.shape == f_ms.value.shape == f_sl.value.shape == (t, d)
        assert model.ltl_forward(f_lm, f_ms, f_sl, leaves, cfg).value.shape \
            == (t, d // 2)
        assert model.gtl_forward(f_l, f_m, f_s, leaves, cfg).value.shape \
            == (t, d // 2)
        checked += 1
    report(6, checked == 100, f"{checked} random configs verified")


def test_criterion_7_ablation_structure(tmp_path):
    base = ModelConfig(d=16)
    full = model.param_count(base)
    d = base.d
    expected_sizes = {
        "use_pfl": 3 * (4 * d * d + 4 * d),
        "use_ltl": 3 * (3 * d + d) + d * (d // 2) + d // 2,
        "use_gtl": 3 * d * (d // 2) + d // 2
                   + 4 * (d // 2) ** 2 + 4 * (d // 2),
        "use_ff": d * d + d,
    }
    sizes_ok = all(full - model.param_count(replace(base, **{flag: False}))
                   == size for flag, size in expected_sizes.items())

    data = tmp_path / "data"
    assert run(["synth", "--out-dir", str(data), "--normal", "40",
                "--abnormal", "40", "--d", "16", "--seed", "42"]) == 0
    aucs = {}
    for flag in ("pfl", "ltl", "gtl", "ff"):
        out = tmp_path / f"run_{flag}"
        scores = tmp_path / f"scores_{flag}"
        assert run(["train", "--manifest", str(data / "train_manifest.csv"),
                    "--out-dir", str(out), "--epochs", "40", "--lr", "1e-3",
                    "--batch-half", "8", "--seed", "42",
                    f"--disable-{flag}"]) == 0
        assert run(["score", "--checkpoint", str(out / "final.mtfc"),
                    "--manifest", str(data / "test_manifest.csv"),
                    "--out-dir", str(scores)]) == 0
        aucs[flag] = eval_auc(data, scores)
    trains_ok = all(a >= 0.85 for a in aucs.values())
    report(7, sizes_ok and trains_ok,
           f"block sizes exact: {sizes_ok}; single-stage-disabled AUCs "
           + ", ".join(f"{k}={v:.3f}" for k, v in aucs.items()))


def test_criterion_8_format_round_trips(tmp_path):
    # feature file
    m = np.random.default_rng(8).normal(size=(9, 4)).astype(np.float32)
    fpath = tmp_path / "f.mtfb"
    dataio.write_feature_file(fpath, m)
    original = fpath.read_bytes()
    back = dataio.read_feature_file(fpath)
    dataio.write_feature_file(fpath, back)
    feature_ok = fpath.read_bytes() == original and np.array_equal(
        back.astype(np.float32), m)

    fpath.write_bytes(b"XXXX" + original[4:])
    try:
        dataio.read_feature_file(fpath)
        magic_ok = False
    except container.BadMagicError:
        magic_ok = True
    fpath.write_bytes(original[:-5])
    try:
        dataio.read_feature_file(fpath)
        trunc_ok = False
    except container.TruncationError:
        trunc_ok = True

    # checkpoint
    mcfg = ModelConfig(d=8, t=8, heads=2, hidden=(6, 4))
    tcfg = TrainConfig(model=mcfg, seed=4)
    params = model.init_params(mcfg, 4)
    state = trainer.AdamState.zeros_like(params)
    state.step = 12
    cpath = tmp_path / "c.mtfc"
    save_checkpoint(cpath, tcfg, params, state)
    raw = cpath.read_bytes()
    cfg2, params2, state2 = load_checkpoint(cpath)
    save_checkpoint(cpath, cfg2, params2, state2)
    ckpt_ok = (cpath.read_bytes() == raw and cfg2 == tcfg
               and state2.step == 12
               and all(np.array_equal(params[k], params2[k]) for k in params))

    cpath.write_bytes(b"ZZZZ" + raw[4:])
    try:
        load_checkpoint(cpath)
        cmagic_ok = False
    except container.BadMagicError:
        cmagic_ok = True
    cpath.write_bytes(raw[:len(raw) // 3])
    try:
        load_checkpoint(cpath)
        ctrunc_ok = False
    except container.TruncationError:
        ctrunc_ok = True

    report(8, all([feature_ok, magic_ok, trunc_ok, ckpt_ok, cmagic_ok,
                   ctrunc_ok]),
           "feature+checkpoint round-trips bit-exact, error kinds distinct")
