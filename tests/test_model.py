import itertools

import numpy as np
import pytest
from dataclasses import replace

from mtfl import diffcore as dc
from mtfl import model
from mtfl.diffcore import Tape, backward
from mtfl.model import ModelConfig

TINY = ModelConfig(d=8, t=8, heads=2, hidden=(6, 4))


def random_feats(cfg, seed=0, scale=1.0):
    """A (3,T,D) snippet tensor: short, medium, long."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, cfg.t, cfg.d)) * scale


class TestConfig:
    def test_rejects_odd_d(self):
        with pytest.raises(ValueError, match="even"):
            ModelConfig(d=7, heads=1)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d=12, heads=4)  # D/2=6 not divisible by 4


class TestInitParams:
    def test_deterministic(self):
        a = model.init_params(TINY, 5)
        b = model.init_params(TINY, 5)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_param_count_matches_closed_form(self):
        cfg = ModelConfig(d=16, t=32, heads=4, hidden=(8, 4))
        d, h1, h2 = 16, 8, 4
        expected = (
            3 * (4 * d * d + 4 * d)            # pairwise attention blocks
            + 3 * (3 * d + d) + d * (d // 2) + d // 2   # conv gates + projection
            + 3 * d * (d // 2) + d // 2        # concat reduction
            + 4 * (d // 2) ** 2 + 4 * (d // 2)  # self-attention block
            + d * d + d                        # fuse projection
            + d * h1 + h1 + h1 * h2 + h2 + h2 + 1  # classifier
        )
        assert model.param_count(cfg) == expected
        assert sum(p.size for p in model.init_params(cfg, 0).values()) == expected

    def test_biases_zero_at_init(self):
        params = model.init_params(TINY, 9)
        for name, p in params.items():
            if name.endswith("_b"):
                assert np.array_equal(p, np.zeros_like(p))

    def test_stage_switch_removes_exactly_that_block(self):
        full = model.param_count(TINY)
        d = TINY.d
        block_sizes = {
            "use_pfl": 3 * (4 * d * d + 4 * d),
            "use_ltl": 3 * (3 * d + d) + d * (d // 2) + d // 2,
            "use_gtl": 3 * d * (d // 2) + d // 2 + 4 * (d // 2) ** 2 + 4 * (d // 2),
            "use_ff": d * d + d,
        }
        for flag, size in block_sizes.items():
            cfg = replace(TINY, **{flag: False})
            assert full - model.param_count(cfg) == size


def record_attention(monkeypatch) -> list[np.ndarray]:
    """Keep the weights of every row softmax `diffcore.attention` takes
    from now on: the attention that actually runs."""
    seen = []
    softmax = dc._softmax

    def recording(x):
        out = softmax(x)
        seen.append(out)
        return out

    monkeypatch.setattr(dc, "_softmax", recording)
    return seen


def forward_with_leaves(cfg, params, feats, rng=None):
    tape = Tape()
    leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
    _, x, scores = model.forward(feats, leaves, cfg, rng=rng)
    return tape, leaves, x, scores


class TestCrossAttention:
    def _block(self, d, seed=1):
        rng = np.random.default_rng(seed)
        return {f"blk.{p}_{kind}": (rng.normal(size=(d, d)) if kind == "w"
                                    else rng.normal(size=(1, d)))
                for p in ("q", "k", "v", "o") for kind in ("w", "b")}

    def test_zero_value_projection_gives_output_bias(self):
        d = 4
        params = self._block(d)
        params["blk.v_w"] = np.zeros((d, d))
        params["blk.v_b"] = np.zeros((1, d))
        tape = Tape()
        leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
        q = tape.constant(np.random.default_rng(0).normal(size=(5, d)))
        kv = tape.constant(np.random.default_rng(1).normal(size=(5, d)))
        out = model.cross_attention(q, kv, leaves, "blk", 2)
        assert np.allclose(out.value, np.tile(params["blk.o_b"], (5, 1)),
                           atol=1e-12)

    def test_single_head_identity_projections_match_direct_formula(self):
        d = 4
        params = {}
        for p in ("q", "k", "v", "o"):
            params[f"blk.{p}_w"] = np.eye(d)
            params[f"blk.{p}_b"] = np.zeros((1, d))
        rng = np.random.default_rng(2)
        qv = rng.normal(size=(6, d))
        kvv = rng.normal(size=(6, d))
        tape = Tape()
        leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
        out = model.cross_attention(tape.constant(qv), tape.constant(kvv),
                                    leaves, "blk", 1)
        logits = qv @ kvv.T / np.sqrt(d)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = (e / e.sum(axis=1, keepdims=True)) @ kvv
        assert np.allclose(out.value, expected, atol=1e-12)

    def test_self_attention_permutation_equivariance(self):
        d = 4
        params = self._block(d, seed=7)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, d))
        perm = rng.permutation(6)

        def run(src):
            tape = Tape()
            leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
            node = tape.constant(src)
            return model.cross_attention(node, node, leaves, "blk", 2).value

        assert np.allclose(run(x)[perm], run(x[perm]), atol=1e-12)


class TestStages:
    def test_pfl_output_shapes(self):
        params = model.init_params(TINY, 0)
        tape, leaves, x, scores = forward_with_leaves(TINY, params,
                                                      random_feats(TINY))
        assert x.value.shape == (TINY.t, TINY.d)

    def test_pfl_bypass_passes_scales_through(self):
        cfg = replace(TINY, use_pfl=False, use_ltl=False, use_gtl=False,
                      use_ff=False)
        params = model.init_params(cfg, 0)
        feats = random_feats(cfg, 1)
        tape, leaves, x, _ = forward_with_leaves(cfg, params, feats)
        expected = (feats[2] + feats[1] + feats[0]) / 3.0
        assert np.allclose(x.value, expected, atol=1e-14)

    def test_pfl_zero_inputs_give_bias_rows(self):
        params = model.init_params(TINY, 3)
        # give output biases nonzero values so the check is meaningful
        for pair in ("lm", "ms", "sl"):
            params[f"pfl.{pair}.o_b"] = np.random.default_rng(4).normal(
                size=(1, TINY.d))
        tape = Tape()
        leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
        zero = tape.constant(np.zeros((TINY.t, TINY.d)))
        f_lm, f_ms, f_sl = model.pfl_forward(zero, zero, zero, leaves, TINY)
        for pair, out in zip(("lm", "ms", "sl"), (f_lm, f_ms, f_sl)):
            assert np.allclose(out.value,
                               np.tile(params[f"pfl.{pair}.o_b"], (TINY.t, 1)),
                               atol=1e-12)

    def test_ltl_output_shape(self):
        params = model.init_params(TINY, 0)
        tape = Tape()
        leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
        p = [tape.constant(np.random.default_rng(i).normal(size=(TINY.t, TINY.d)))
             for i in range(3)]
        out = model.ltl_forward(*p, leaves, TINY)
        assert out.value.shape == (TINY.t, TINY.d // 2)

    def test_ltl_zero_kernels_half_gate(self):
        params = model.init_params(TINY, 0)
        for pair in ("lm", "ms", "sl"):
            params[f"ltl.{pair}.conv_w"] = np.zeros((TINY.d, 3))
            params[f"ltl.{pair}.conv_b"] = np.zeros((1, TINY.d))
        tape = Tape()
        leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
        rng = np.random.default_rng(5)
        mats = [rng.normal(size=(TINY.t, TINY.d)) for _ in range(3)]
        out = model.ltl_forward(*[tape.constant(m) for m in mats], leaves, TINY)
        expected = 0.5 * sum(mats) @ params["ltl.proj_w"] + params["ltl.proj_b"]
        assert np.allclose(out.value, expected, atol=1e-12)

    def test_ltl_gate_saturates_on_positive_entries(self):
        cfg = replace(TINY, t=6)
        params = model.init_params(cfg, 0)
        big = 50.0
        for pair in ("lm", "ms", "sl"):
            params[f"ltl.{pair}.conv_w"] = np.tile([0.0, big, 0.0], (cfg.d, 1))
            params[f"ltl.{pair}.conv_b"] = np.zeros((1, cfg.d))
        x = np.abs(np.random.default_rng(6).normal(size=(cfg.t, cfg.d))) + 0.5
        tape = Tape()
        leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
        gate = dc.sigmoid(dc.dilated_conv1d_depthwise(
            tape.constant(x), leaves["ltl.lm.conv_w"], leaves["ltl.lm.conv_b"],
            model.DILATIONS["lm"]))
        assert np.all(gate.value > 1 - 1e-6)

    def test_gtl_output_shape_and_equivariance(self):
        params = model.init_params(TINY, 0)
        feats = random_feats(TINY, 2)
        perm = np.random.default_rng(0).permutation(TINY.t)

        def run(m):
            tape = Tape()
            leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
            f_s, f_m, f_l = map(tape.constant, m)
            return model.gtl_forward(f_l, f_m, f_s, leaves, TINY).value

        base = run(feats)
        assert base.shape == (TINY.t, TINY.d // 2)
        permuted = run(feats[:, perm])
        assert np.allclose(base[perm], permuted, atol=1e-12)

    def test_gtl_constant_input_gives_equal_rows(self):
        params = model.init_params(TINY, 1)
        tape = Tape()
        leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
        zero = tape.constant(np.zeros((TINY.t, TINY.d)))
        out = model.gtl_forward(zero, zero, zero, leaves, TINY)
        assert np.allclose(out.value, out.value[0], atol=1e-12)

    def test_ff_residual_only_when_weights_zero(self):
        params = model.init_params(TINY, 0)
        params["ff.proj_w"] = np.zeros((TINY.d, TINY.d))
        params["ff.proj_b"] = np.zeros((1, TINY.d))
        # zero the classifier so X is inspectable regardless
        feats = random_feats(TINY, 3)
        tape, leaves, x, _ = forward_with_leaves(TINY, params, feats)
        residual = (feats[2] + feats[1] + feats[0]) / 3.0
        # with random upstream params only the projection is zeroed; X is
        # exactly the residual
        assert np.allclose(x.value, residual, atol=1e-12)

    def test_ff_disabled_concatenates_halves(self):
        cfg = replace(TINY, use_ff=False)
        params = model.init_params(cfg, 0)
        assert "ff.proj_w" not in params
        tape, leaves, x, scores = forward_with_leaves(cfg, params,
                                                      random_feats(cfg, 4))
        assert x.value.shape == (cfg.t, cfg.d)
        assert scores.value.shape == (cfg.t, 1)


class TestClassify:
    def test_zero_params_give_half(self):
        params = {n: np.zeros_like(p) for n, p in
                  model.init_params(TINY, 0).items()}
        tape, leaves, _, scores = forward_with_leaves(TINY, params,
                                                      random_feats(TINY))
        assert np.allclose(scores.value, 0.5)

    def test_eval_mode_deterministic(self):
        params = model.init_params(TINY, 2)
        feats = random_feats(TINY, 5)
        _, _, _, s1 = forward_with_leaves(TINY, params, feats)
        _, _, _, s2 = forward_with_leaves(TINY, params, feats)
        assert np.array_equal(s1.value, s2.value)

    def test_final_bias_monotonicity(self):
        params = model.init_params(TINY, 2)
        feats = random_feats(TINY, 5)
        _, _, _, low = forward_with_leaves(TINY, params, feats)
        bumped = dict(params)
        bumped["clf.fc3_b"] = params["clf.fc3_b"] + 1.0
        _, _, _, high = forward_with_leaves(TINY, bumped, feats)
        assert np.all(high.value > low.value)

    def test_train_dropout_deterministic_given_rng(self, monkeypatch):
        monkeypatch.setattr(model, "DROPOUT", 0.5)
        params = model.init_params(TINY, 0)
        feats = random_feats(TINY, 6)[:, None]  # a batch of one
        runs = []
        for _ in range(2):
            rng = [np.random.default_rng(11)]
            _, _, _, s = forward_with_leaves(TINY, params, feats, rng=rng)
            runs.append(s.value)
        assert np.array_equal(runs[0], runs[1])


class TestForward:
    def test_shapes_and_score_range(self):
        params = model.init_params(TINY, 0)
        _, _, x, scores = forward_with_leaves(TINY, params,
                                              random_feats(TINY, 7))
        assert x.value.shape == (TINY.t, TINY.d)
        assert scores.value.shape == (TINY.t, 1)
        assert np.all((scores.value > 0) & (scores.value < 1))

    def test_attention_rows_sum_to_one(self, monkeypatch):
        attention = record_attention(monkeypatch)
        forward_with_leaves(TINY, model.init_params(TINY, 8),
                            random_feats(TINY, 8))
        # PFL lm, ms, sl, then GTL: one (heads, T, T) matrix each
        shape = (TINY.heads, TINY.t, TINY.t)
        assert [a.shape for a in attention] == [shape] * 4
        for a in attention:
            assert np.allclose(a.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_full_forward_not_permutation_equivariant(self):
        # the conv gates are temporal, so permuting snippets changes output
        params = model.init_params(TINY, 9)
        feats = random_feats(TINY, 9)
        perm = np.roll(np.arange(TINY.t), 3)
        _, _, x1, _ = forward_with_leaves(TINY, params, feats)
        permuted = feats[:, perm]
        _, _, x2, _ = forward_with_leaves(TINY, params, permuted)
        assert not np.allclose(x1.value[perm], x2.value, atol=1e-8)

    def test_gradient_flows_to_every_parameter(self):
        params = model.init_params(TINY, 10)
        tape, leaves, x, scores = forward_with_leaves(TINY, params,
                                                      random_feats(TINY, 10))
        loss = dc.reduce(dc.add(dc.reduce(dc.hadamard(x, x), mode="sum"),
                                dc.reduce(scores, mode="sum")), mode="sum")
        grads = backward(loss)
        dead = [n for n, g in grads.items() if not np.any(g)]
        assert dead == []


class TestBatchedForward:
    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("switches", list(itertools.product(
        [True, False], repeat=4)), ids=lambda s: "".join("1" if on else "0"
                                                         for on in s))
    def test_batch_matches_each_video_alone(self, switches, mode,
                                            monkeypatch):
        """One (3,B,T,D) forward gives every video the X and scores of its own
        B-less forward, including its own dropout masks in train mode."""
        monkeypatch.setattr(model, "DROPOUT", 0.5)
        cfg = replace(TINY, **dict(zip(
            ("use_pfl", "use_ltl", "use_gtl", "use_ff"), switches)))
        params = model.init_params(cfg, 1)
        rng = np.random.default_rng(2)
        b = 3
        batch = rng.standard_normal((3, b, cfg.t, cfg.d))

        def dropout_rngs(slots):
            return ([np.random.default_rng([7, slot]) for slot in slots]
                    if mode == "train" else None)

        _, _, xb, sb = forward_with_leaves(cfg, params, batch,
                                           dropout_rngs(range(b)))
        assert xb.value.shape == (b, cfg.t, cfg.d)
        assert sb.value.shape == (b, cfg.t, 1)
        for i in range(b):
            # dropout takes a batch, so a video alone is a batch of one
            _, _, x1, s1 = forward_with_leaves(cfg, params, batch[:, i:i + 1],
                                               dropout_rngs([i]))
            assert np.allclose(xb.value[i], x1.value[0], rtol=1e-12,
                               atol=1e-15)
            assert np.allclose(sb.value[i], s1.value[0], rtol=1e-12,
                               atol=1e-15)

    def test_one_dropout_generator_per_video(self):
        params = model.init_params(TINY, 0)
        batch = np.ones((3, 3, TINY.t, TINY.d))
        with pytest.raises(ValueError, match="generators"):
            forward_with_leaves(TINY, params, batch,
                                [np.random.default_rng(0)] * 2)

    @pytest.mark.parametrize("b", [1, 16])
    @pytest.mark.parametrize("width", [512, 128])
    def test_batch_masks_match_stacked_draws(self, b, width):
        """The masks drawn into one buffer equal those of one fresh draw per
        video, stacked, from generators of the same seeds."""
        rate, shape = 0.7, (b, 32, width)
        keep = model._keep_mask(shape, [np.random.default_rng([5, slot])
                                        for slot in range(b)])
        rngs = [np.random.default_rng([5, slot]) for slot in range(b)]
        expected = np.stack([r.random(shape[1:]) for r in rngs]) >= rate
        assert keep.dtype == bool and np.array_equal(keep, expected)
