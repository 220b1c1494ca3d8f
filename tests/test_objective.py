import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfl import diffcore as dc
from mtfl import objective
from mtfl.diffcore import Tape, backward
from mtfl.objective import LossWeights, temporal_regularizers, total_loss


def col(tape, values, name=None):
    return tape.leaf(np.asarray(values, dtype=float).reshape(-1, 1), name=name)


class TestTopkOracle:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_sort_oracle_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        # coarse grid forces ties
        v = rng.integers(-3, 4, size=n).astype(float)
        k = int(rng.integers(1, n + 1))
        tape = Tape()
        got = dc.topk_mean(col(tape, v), k).value[0, 0]
        expected = np.sort(v)[::-1][:k].mean()
        assert got == expected


def videos(tape, rows, name=None):
    """One leaf holding a batch of score columns, shape (B, T, 1)."""
    return tape.leaf(np.asarray(rows, dtype=float)[..., None], name=name)


class TestVideoBce:
    def test_uniform_half_scores(self):
        tape = Tape()
        scores = videos(tape, np.full((4, 3), 0.5))
        out = objective.video_bce(scores, k=2)
        assert np.isclose(out.value[0, 0], np.log(2), atol=1e-12)

    def test_perfect_predictions_clamped(self):
        tape = Tape()
        scores = videos(tape, [[0.0, 0.0], [1.0, 1.0]])
        out = objective.video_bce(scores, k=1)
        assert np.isclose(out.value[0, 0], -np.log(1 - 1e-7), atol=1e-12)

    def test_hand_computed_abnormal(self):
        tape = Tape()
        # the normal video's top-2 mean is 0.1, the abnormal one's 0.9
        out = objective.video_bce(videos(tape, [[0.1, 0.0, 0.1, 0.05],
                                                [0.9, 0.1, 0.1, 0.9]]), k=2)
        assert np.isclose(out.value[0, 0], -np.log(0.9), atol=1e-12)


class TestFeatureMagnitude:
    def _pair(self, tape, xp, xn):
        """A batch of one normal video (xn), then one abnormal video (xp)."""
        return tape.leaf(np.stack([np.asarray(xn, dtype=float),
                                   np.asarray(xp, dtype=float)]))

    def test_identical_sets_give_margin(self):
        tape = Tape()
        x = np.random.default_rng(0).normal(size=(4, 3))
        out = objective.feature_magnitude_loss(self._pair(tape, x, x), k=2,
                                               margin=7.5)
        assert out.value[0, 0] == 7.5

    def test_satisfied_hinge_is_zero(self):
        tape = Tape()
        out = objective.feature_magnitude_loss(
            self._pair(tape, np.eye(3) * 100, np.eye(3) * 0.01), k=1,
            margin=10)
        assert out.value[0, 0] == 0.0

    def test_single_pair_arithmetic(self):
        tape = Tape()
        # top-1 magnitudes 7 (abnormal) and 5 (normal)
        out = objective.feature_magnitude_loss(
            self._pair(tape, [[7.0, 0.0]], [[5.0, 0.0]]), k=1, margin=10)
        assert out.value[0, 0] == 8.0

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tape = Tape()
            out = objective.feature_magnitude_loss(
                self._pair(tape, rng.normal(size=(5, 3)),
                            rng.normal(size=(5, 3))), k=2, margin=2.0)
            assert out.value[0, 0] >= 0


class TestTemporalRegularizers:
    def test_constant_scores(self):
        tape = Tape()
        sp, sm = temporal_regularizers(col(tape, [0.5] * 32))
        assert np.isclose(sp.value[0, 0], 16.0, atol=1e-12)
        assert sm.value[0, 0] == 0.0

    def test_alternating(self):
        tape = Tape()
        sp, sm = temporal_regularizers(col(tape, [0.0, 1.0, 0.0, 1.0]))
        assert sp.value[0, 0] == 2.0
        assert sm.value[0, 0] == 3.0

    def test_all_zero(self):
        tape = Tape()
        sp, sm = temporal_regularizers(col(tape, [0.0] * 8))
        assert sp.value[0, 0] == 0.0
        assert sm.value[0, 0] == 0.0

    def test_one_value_per_video(self):
        tape = Tape()
        sp, sm = temporal_regularizers(videos(tape, [[0.0, 1.0, 0.0, 1.0],
                                                     [0.5, 0.5, 0.5, 0.5]]))
        assert np.array_equal(sp.value.ravel(), [2.0, 2.0])
        assert np.array_equal(sm.value.ravel(), [3.0, 0.0])


def make_batch(tape, seed=0, n_pairs=2, t=6, d=4):
    """Leaves X (B,T,D) and scores (B,T,1) of `n_pairs` normal videos, then
    `n_pairs` abnormal ones, and the labels of that layout."""
    rng = np.random.default_rng(seed)
    x = tape.leaf(rng.normal(size=(2 * n_pairs, t, d)), name="x")
    s = tape.leaf(rng.uniform(0.01, 0.99, size=(2 * n_pairs, t, 1)), name="s")
    return x, s, [0] * n_pairs + [1] * n_pairs


def reference_terms(x, s, labels, w):
    """The four terms video by video in plain numpy, from each video's
    label: (bce, fm, sp, sm). The i-th abnormal video pairs with the i-th
    normal one."""
    def topk(v):
        return np.sort(v.ravel())[::-1][:w.k].mean()

    pos = [i for i, y in enumerate(labels) if y == 1]
    neg = [i for i, y in enumerate(labels) if y == 0]
    bce = np.mean([-np.log(np.clip(topk(s[i]) if y == 1 else 1 - topk(s[i]),
                                   1e-7, 1 - 1e-7))
                   for i, y in enumerate(labels)])
    fm = np.mean([max(0.0, w.margin + topk(np.linalg.norm(x[n], axis=1))
                      - topk(np.linalg.norm(x[p], axis=1)))
                  for p, n in zip(pos, neg)])
    sp = np.mean([np.abs(s[i]).sum() for i in pos])
    sm = np.mean([(np.diff(s[i].ravel()) ** 2).sum() for i in pos])
    return bce, fm, sp, sm


class TestTotalLoss:
    def test_decomposition_identity(self):
        tape = Tape()
        x, s, labels = make_batch(tape)
        w = LossWeights(lambda_fm=0.3, lambda1=0.07, lambda2=0.11, margin=2.0,
                        k=2)
        total, b = total_loss(x, s, w)
        recomposed = (b.bce + w.lambda_fm * b.fm + w.lambda1 * b.sparsity
                      + w.lambda2 * b.smoothness)
        assert abs(b.total - recomposed) <= 1e-12
        assert total.value[0, 0] == b.total

    @pytest.mark.parametrize("labels", [[0, 1], [0, 0, 1, 1],
                                        [0, 0, 0, 1, 1, 1]])
    def test_terms_match_per_video_reference(self, labels):
        tape = Tape()
        x, s, layout = make_batch(tape, seed=4, n_pairs=len(labels) // 2)
        assert layout == labels
        w = LossWeights(lambda_fm=0.3, lambda1=0.07, lambda2=0.11, margin=2.0,
                        k=2)
        _, b = total_loss(x, s, w)
        expected = reference_terms(x.value, s.value, labels, w)
        assert np.allclose([b.bce, b.fm, b.sparsity, b.smoothness], expected,
                           rtol=1e-12, atol=0)

    def test_zero_lambdas_total_is_bce(self):
        tape = Tape()
        x, s, _ = make_batch(tape, seed=1)
        w = LossWeights(lambda_fm=0.0, lambda1=0.0, lambda2=0.0, margin=2.0, k=2)
        _, b = total_loss(x, s, w)
        assert b.total == b.bce

    def test_doubling_lambda1_is_linear(self):
        w1 = LossWeights(lambda_fm=0.0, lambda1=0.05, lambda2=0.0, margin=2.0,
                         k=2)
        w2 = LossWeights(lambda_fm=0.0, lambda1=0.10, lambda2=0.0, margin=2.0,
                         k=2)
        tape = Tape()
        x, s, _ = make_batch(tape, seed=2)
        _, b1 = total_loss(x, s, w1)
        _, b2 = total_loss(x, s, w2)
        assert np.isclose(b2.total - b1.total, 0.05 * b1.sparsity, atol=1e-12)

    @pytest.mark.parametrize("x_videos,s_videos", [(3, 3), (1, 1), (4, 2),
                                                   (2, 4)])
    def test_odd_or_mismatched_batch_rejected(self, x_videos, s_videos):
        rng = np.random.default_rng(0)
        tape = Tape()
        x = tape.leaf(rng.normal(size=(x_videos, 4, 2)))
        s = tape.leaf(rng.uniform(0.01, 0.99, size=(s_videos, 4, 1)))
        with pytest.raises(ValueError, match="n normal then n abnormal"):
            total_loss(x, s, LossWeights(k=1))

    def test_reordering_within_classes_invariant(self):
        w = LossWeights(lambda_fm=0.2, lambda1=0.05, lambda2=0.05, margin=2.0,
                        k=2)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(4, 6, 4))
        ss = rng.uniform(0.01, 0.99, size=(4, 6, 1))

        def run(order):
            tape = Tape()
            _, b = total_loss(tape.leaf(xs[order]), tape.leaf(ss[order]), w)
            return b

        # swap within the normal pair and within the abnormal pair; the fm
        # pairing changes partners, so only the class-mean terms must agree
        b1 = run([0, 1, 2, 3])
        b2 = run([1, 0, 3, 2])
        assert np.isclose(b1.bce, b2.bce, atol=1e-12)
        assert np.isclose(b1.sparsity, b2.sparsity, atol=1e-12)
        assert np.isclose(b1.smoothness, b2.smoothness, atol=1e-12)

    def test_topk_gradient_zero_off_selection(self):
        tape = Tape()
        s = videos(tape, [[0.3, 0.4, 0.2, 0.1], [0.9, 0.1, 0.8, 0.2]],
                   name="s")
        loss = objective.video_bce(s, k=2)
        grads = backward(loss)
        assert np.array_equal(grads["s"][:, :, 0] != 0.0,
                              [[True, True, False, False],
                               [True, False, True, False]])
