import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtfl import diffcore as dc
from mtfl.diffcore import Tape, backward, finite_diff_check
from mtfl.objective import BCE_CLAMP


def leaf_pair(a, b):
    tape = Tape()
    return tape, tape.leaf(a, name="a"), tape.leaf(b, name="b")


class TestMatmul:
    def test_identity(self):
        tape = Tape()
        b = np.arange(6.0).reshape(3, 2)
        out = dc.matmul(tape.leaf(np.eye(3)), tape.leaf(b))
        assert np.array_equal(out.value, b)

    def test_zero_annihilates(self):
        tape = Tape()
        out = dc.matmul(tape.leaf(np.zeros((2, 3))),
                        tape.leaf(np.random.default_rng(0).normal(size=(3, 4))))
        assert np.array_equal(out.value, np.zeros((2, 4)))

    def test_hand_example(self):
        tape = Tape()
        out = dc.matmul(tape.leaf([[1.0, 2.0], [3.0, 4.0]]),
                        tape.leaf([[5.0], [6.0]]))
        assert np.array_equal(out.value, [[17.0], [39.0]])

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for p in range(4):
                    expected[i, j] += a[i, p] * b[p, j]
        tape = Tape()
        out = dc.matmul(tape.leaf(a), tape.leaf(b))
        assert np.allclose(out.value, expected, rtol=1e-14, atol=0)

    def test_dimension_mismatch_names_both_shapes(self):
        tape = Tape()
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            dc.matmul(tape.leaf(np.zeros((2, 3))), tape.leaf(np.zeros((2, 3))))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
        tape = Tape()
        na, nb, nc = tape.leaf(a), tape.leaf(b), tape.leaf(c)
        left = dc.matmul(dc.matmul(na, nb), nc).value
        right = dc.matmul(na, dc.matmul(nb, nc)).value
        assert np.allclose(left, right, rtol=1e-10)


class TestSoftmaxRows:
    """The row softmax inside `attention`, on plain arrays."""

    def test_uniform(self):
        out = dc._softmax(np.zeros((1, 3)))
        assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_analytic_shift(self):
        for c in (-50.0, 0.0, 3.7):
            out = dc._softmax(np.array([[c, c + np.log(2)]]))
            assert np.allclose(out, [[1 / 3, 2 / 3]], atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed):
        x = np.random.default_rng(seed).normal(size=(4, 5)) * 10
        out = dc._softmax(x)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)

    def test_shift_invariance(self):
        x = np.random.default_rng(3).normal(size=(3, 4))
        assert np.allclose(dc._softmax(x), dc._softmax(x + 7.25), atol=1e-12)

    def test_overflow_safe(self):
        out = dc._softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, [[0.5, 0.5]])


def same_bits(a, b):
    """Equal arrays, down to the sign of every zero."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_attention(q, k, v, heads, g):
    """Output and (dq, dk, dv) of multi-head attention for the output
    cotangent `g`, by the chain of separate steps the model ran before the
    op was fused: split heads, q kᵀ, scale, row softmax, P v, merge heads,
    and each step's backward in reverse."""
    dh = q.shape[-1] // heads

    def split(x):
        return np.swapaxes(x.reshape(x.shape[:-1] + (heads, dh)), -3, -2)

    def merge(x):
        x = np.swapaxes(x, -3, -2)
        return x.reshape(x.shape[:-2] + (heads * dh,))

    q4, k4, v4 = split(q), split(k), split(v)
    kt = np.swapaxes(k4, -1, -2)
    c = float(1.0 / np.sqrt(dh))
    scaled = (q4 @ kt) * c
    e = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = merge(p @ v4)
    go = split(g)
    dp = go @ np.swapaxes(v4, -1, -2)
    dv = np.swapaxes(p, -1, -2) @ go
    dscaled = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    dkt_in = dscaled * c
    dq = dkt_in @ np.swapaxes(kt, -1, -2)
    dk = np.swapaxes(np.swapaxes(q4, -1, -2) @ dkt_in, -1, -2)
    return out, (merge(dq), merge(dk), merge(dv))


def probed_loss(out, probe):
    """A scalar loss whose cotangent for `out` is exactly `probe`."""
    return _batch_sum(dc.hadamard(out, out.tape.constant(probe)))


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "batch"])
    def test_cross_sources_match_unfused_chain(self, heads, lead):
        rng = np.random.default_rng(heads)
        q = rng.normal(size=lead + (5, 8))
        k, v = (rng.normal(size=lead + (6, 8)) for _ in range(2))
        g = rng.normal(size=q.shape)
        tape = Tape()
        nodes = [tape.leaf(a, name=n) for n, a in zip("qkv", (q, k, v))]
        out = dc.attention(*nodes, heads)
        grads = backward(probed_loss(out, g))
        expected, dqkv = reference_attention(q, k, v, heads, g)
        assert same_bits(out.value, expected)
        for name, d in zip("qkv", dqkv):
            assert same_bits(grads[name], d), name

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_self_source_sums_the_three_gradients(self, heads):
        rng = np.random.default_rng(10 + heads)
        x = rng.normal(size=(2, 5, 8))
        g = rng.normal(size=x.shape)
        tape = Tape()
        src = tape.leaf(x, name="x")
        out = dc.attention(src, src, src, heads)
        grads = backward(probed_loss(out, g))
        expected, (dq, dk, dv) = reference_attention(x, x, x, heads, g)
        assert same_bits(out.value, expected)
        # the tape adds the cotangents of its parents in order: q, k, v
        assert same_bits(grads["x"], dq + dk + dv)

    def test_second_loss_on_one_tape_gets_its_own_gradients(self):
        rng = np.random.default_rng(20)
        q, k, v = (rng.normal(size=(2, 4, 6)) for _ in range(3))
        probes = [rng.normal(size=q.shape) for _ in range(2)]

        def fresh(probe):
            tape = Tape()
            out = dc.attention(*(tape.leaf(a, name=n)
                                 for n, a in zip("qkv", (q, k, v))), 2)
            return backward(probed_loss(out, probe))

        tape = Tape()
        out = dc.attention(*(tape.leaf(a, name=n)
                             for n, a in zip("qkv", (q, k, v))), 2)
        losses = [probed_loss(out, p) for p in probes]
        for loss, probe in zip(losses + losses, probes + probes):
            grads, alone = backward(loss), fresh(probe)
            for name in "qkv":
                assert np.array_equal(grads[name], alone[name]), name

    @pytest.mark.parametrize("shapes, heads", [
        (((4, 6), (4, 6), (4, 6)), 4),
        (((4, 8), (4, 6), (4, 6)), 2),
        (((4, 6), (4, 6), (5, 6)), 2),
        (((4, 6), (4, 6), (4, 8)), 2),
        (((2, 4, 6), (3, 4, 6), (3, 4, 6)), 2),
    ], ids=["width-not-divisible", "q-width", "v-rows", "v-width", "batch"])
    def test_shape_mismatch(self, shapes, heads):
        tape = Tape()
        with pytest.raises(ValueError, match="attention shape mismatch"):
            dc.attention(*(tape.leaf(np.zeros(s)) for s in shapes), heads)


class TestReluDropout:
    def test_matches_relu_then_float_mask(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(3, 6, 8))
        x[0, 0, :4] = [0.0, -0.0, 0.0, -0.0]
        keep = rng.random(x.shape) >= 0.7
        g = rng.normal(size=x.shape)
        g[0, 0, :4] = [1.0, 1.0, -1.0, -1.0]
        mask = keep / (1.0 - 0.7)
        tape = Tape()
        out = dc.relu_dropout(tape.leaf(x, name="x"), keep, 1.0 / (1.0 - 0.7))
        assert same_bits(out.value, np.maximum(x, 0.0) * mask)
        grads = backward(probed_loss(out, g))
        assert same_bits(grads["x"], (g * mask) * (x > 0))
        zeros = grads["x"][grads["x"] == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    def test_keep_mask_of_wrong_shape_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError, match="keep mask shape"):
            dc.relu_dropout(tape.leaf(np.zeros((2, 3, 4))),
                            np.ones((3, 4), dtype=bool), 2.0)


class TestDilatedConv:
    def _run(self, x, w, b, dilation):
        tape = Tape()
        return dc.dilated_conv1d_depthwise(
            tape.leaf(x), tape.leaf(w), tape.leaf(b), dilation).value

    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        w = np.tile([0.0, 1.0, 0.0], (3, 1))
        for r in (1, 2, 4):
            assert np.array_equal(self._run(x, w, np.zeros((1, 3)), r), x)

    def test_ones_kernel_hand_unrolled(self):
        x = np.ones((5, 1))
        out = self._run(x, np.ones((1, 3)), np.zeros((1, 1)), 1)
        assert np.array_equal(out.ravel(), [2, 3, 3, 3, 2])

    def test_shift_by_dilation(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = self._run(x, np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 1)), 2)
        assert np.array_equal(out.ravel(), [0, 0, 1, 2])
        # A dilation of T or more shifts every row past the end.
        out = self._run(x, np.array([[1.0, 0.0, 1.0]]), np.zeros((1, 1)), 4)
        assert np.array_equal(out.ravel(), [0, 0, 0, 0])

    def test_zero_dilation_rejected(self):
        with pytest.raises(ValueError, match="dilation"):
            self._run(np.ones((4, 1)), np.ones((1, 3)), np.zeros((1, 1)), 0)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        tape = Tape()
        assert dc.sigmoid(tape.leaf([[0.0]])).value[0, 0] == 0.5

    def test_relu_negative(self):
        tape = Tape()
        out = dc.relu(tape.leaf([[-3.0, 2.0, -0.1]]))
        assert np.array_equal(out.value, [[0.0, 2.0, 0.0]])

    def test_hadamard_ones_identity(self):
        x = np.random.default_rng(5).normal(size=(3, 3))
        tape = Tape()
        out = dc.hadamard(tape.leaf(x), tape.leaf(np.ones((3, 3))))
        assert np.array_equal(out.value, x)

    def test_binary_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ValueError, match="shape"):
            dc.add(tape.leaf(np.zeros((2, 2))), tape.leaf(np.zeros((2, 3))))
        with pytest.raises(ValueError, match="shape"):
            dc.hadamard(tape.leaf(np.zeros((2, 2))), tape.leaf(np.zeros((3, 2))))


class TestReduce:
    def test_mean_all_identity_matrix(self):
        tape = Tape()
        out = dc.reduce(tape.leaf(np.eye(2)), mode="mean")
        assert out.value[0, 0] == 0.5


class TestBackward:
    def test_sum_gives_ones(self):
        tape = Tape()
        p = tape.leaf(np.random.default_rng(0).normal(size=(3, 4)), name="p")
        grads = backward(dc.reduce(p, mode="sum"))
        assert np.array_equal(grads["p"], np.ones((3, 4)))

    def test_half_square_gives_identity(self):
        x = np.random.default_rng(1).normal(size=(2, 5))
        tape = Tape()
        p = tape.leaf(x, name="p")
        loss = dc.scale(dc.reduce(dc.hadamard(p, p), mode="sum"), 0.5)
        grads = backward(loss)
        assert np.allclose(grads["p"], x, rtol=1e-15)

    def test_logistic_bce_gradient_at_zero_weights(self):
        # loss = BCE(sigmoid(w.x), y) at w=0 has gradient (0.5 - y) x
        x = np.array([[0.3, -1.2, 0.7]])
        for y in (0, 1):
            tape = Tape()
            w = tape.leaf(np.zeros((3, 1)), name="w")
            s = dc.sigmoid(dc.matmul(tape.constant(x), w))
            p = s if y == 1 else dc.add(tape.constant([[1.0]]),
                                        dc.scale(s, -1.0))
            loss = dc.scale(dc.log_clamped(p, BCE_CLAMP, 1 - BCE_CLAMP), -1.0)
            grads = backward(loss)
            assert np.allclose(grads["w"].ravel(), (0.5 - y) * x.ravel(),
                               atol=1e-12)

    def test_unused_parameter_gets_exact_zeros(self):
        tape = Tape()
        p = tape.leaf(np.ones((2, 2)), name="p")
        tape.leaf(np.ones((3, 3)), name="unused")
        grads = backward(dc.reduce(p, mode="sum"))
        assert np.array_equal(grads["unused"], np.zeros((3, 3)))

    def test_repeat_call_identical(self):
        tape = Tape()
        p = tape.leaf(np.random.default_rng(2).normal(size=(3, 3)), name="p")
        loss = dc.reduce(dc.sigmoid(dc.matmul(p, p)), mode="sum")
        g1 = backward(loss)
        g2 = backward(loss)
        assert np.array_equal(g1["p"], g2["p"])

    def test_tape_freed_without_cycle_collector(self):
        """Dropping the last node frees the tape and its arrays at once; a
        training step's tape holds tens of MB."""
        gc.disable()
        try:
            tape = Tape()
            p = tape.leaf(np.ones((2, 2)), name="p")
            tape.leaf(np.ones((3, 3)), name="unused")
            loss = dc.reduce(dc.sigmoid(dc.matmul(p, p)))
            backward(loss)
            alive = weakref.ref(tape)
            del tape, p, loss
            assert alive() is None
        finally:
            gc.enable()

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        p = tape.leaf(np.ones((2, 2)), name="p")
        with pytest.raises(ValueError, match="scalar"):
            backward(p)


class TestTopkMean:
    def test_examples(self):
        tape = Tape()
        v = tape.leaf(np.array([[3.0], [1.0], [2.0]]))
        assert dc.topk_mean(v, 2).value[0, 0] == 2.5
        assert dc.topk_mean(v, 1).value[0, 0] == 3.0
        assert dc.topk_mean(v, 3).value[0, 0] == 2.0

    def test_k_out_of_range(self):
        tape = Tape()
        v = tape.leaf(np.ones((3, 1)))
        with pytest.raises(ValueError, match="out of range"):
            dc.topk_mean(v, 4)

    def test_gradient_only_on_selected(self):
        tape = Tape()
        v = tape.leaf(np.array([[1.0], [5.0], [2.0], [5.0]]), name="v")
        grads = backward(dc.topk_mean(v, 2))
        # ties broken by lowest index: rows 1 and 3 selected
        assert np.array_equal(grads["v"].ravel(), [0.0, 0.5, 0.0, 0.5])


class TestRowNorms:
    def test_values_and_gradient(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0]])
        tape = Tape()
        p = tape.leaf(x, name="p")
        norms = dc.row_norms(p)
        assert np.array_equal(norms.value.ravel(), [5.0, 0.0])
        grads = backward(dc.reduce(norms, mode="sum"))
        assert np.allclose(grads["p"][0], [0.6, 0.8])
        assert np.array_equal(grads["p"][1], [0.0, 0.0])


class TestFiniteDiffCheck:
    def test_quadratic(self):
        def build(p):
            tape = Tape()
            w = tape.leaf(p["w"], name="w")
            return dc.scale(dc.reduce(dc.hadamard(w, w), mode="sum"), 0.5)

        report = finite_diff_check(
            build, {"w": np.random.default_rng(0).normal(size=(3, 3))},
            eps=1e-5, tol=1e-8)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_constant_loss(self):
        def build(p):
            tape = Tape()
            tape.leaf(p["w"], name="w")
            return tape.constant([[7.0]])

        report = finite_diff_check(build, {"w": np.ones((2, 2))})
        assert report.passed
        assert report.max_rel_error == 0.0

    def test_composite_layers_pass(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4))

        def build(p):
            tape = Tape()
            w = tape.leaf(p["w"], name="w")
            k = tape.leaf(p["k"], name="k")
            b = tape.leaf(p["b"], name="b")
            h = dc.matmul(tape.constant(x), w)
            h = dc.attention(h, h, h, 2)
            h = dc.dilated_conv1d_depthwise(h, k, b, 2)
            h = dc.sigmoid(h)
            return dc.reduce(dc.hadamard(h, h), mode="mean")

        params = {"w": rng.normal(size=(4, 4)), "k": rng.normal(size=(4, 3)),
                  "b": rng.normal(size=(1, 4))}
        report = finite_diff_check(build, params, eps=1e-5, tol=1e-4)
        assert report.passed, report


class TestFiniteDiffCheckSampling:
    """Past 10,000 coordinates `finite_diff_check` checks a seeded sample of
    SAMPLED_COORDS of them: one 101x100 leaf has 10,100."""

    W = np.random.default_rng(6).normal(size=(101, 100))

    @classmethod
    def _check(cls, square, seed=0):
        calls = []

        def build(p):
            calls.append(1)
            tape = Tape()
            return dc.reduce(square(tape.leaf(p["w"], name="w")), mode="sum")

        return finite_diff_check(build, {"w": cls.W}, seed=seed), len(calls)

    @staticmethod
    def _wrong_square(w):
        """w*w with a vjp off by 0.01 g: wrong at every coordinate, most of
        all where w is near zero."""
        v = w.value
        return w.tape._record(v * v, [(w, lambda g: g * (2 * v + 0.01))])

    def test_correct_op_passes_on_the_sample(self):
        report, calls = self._check(lambda w: dc.hadamard(w, w))
        assert report.passed, report
        # the loss, the determinism check, then two builds per coordinate
        assert calls == 2 + 2 * dc.SAMPLED_COORDS

    def test_wrong_vjp_fails_on_the_sample(self):
        report, _ = self._check(self._wrong_square)
        assert not report.passed
        assert report.max_rel_error > 1e-3

    def test_same_seed_reports_same_worst_coordinate(self):
        first, second, other = (self._check(self._wrong_square, seed)[0]
                                for seed in (3, 3, 4))
        assert first == second
        # another seed samples other coordinates, so another is the worst
        assert other.worst_coordinate != first.worst_coordinate


def _batch_sum(node):
    """Scalar sum of every entry of a batched node."""
    per_matrix = dc.reduce(node, mode="sum")
    return dc.reduce(dc.reshape(per_matrix, (1, per_matrix.value.size)),
                     mode="sum")


# A fixed keep mask for one video's 5x4 matrix, the same for every video.
KEEP = np.arange(20).reshape(5, 4) % 3 != 0

# Each case maps a (3, 5, 4) batch x and 2-D weights w (4x4), k (4x3) and
# b (1x4) to a batched node. "matmul_shared_weight" and "add_rowvec" are the
# two halves of `linear` alone: a zero bias, and an identity weight.
BATCHED_OPS = {
    "linear": lambda x, w, k, b: dc.linear(x, w, b),
    "matmul_shared_weight": lambda x, w, k, b: dc.linear(
        x, w, x.tape.constant(np.zeros((1, 4)))),
    "add_rowvec": lambda x, w, k, b: dc.linear(
        x, x.tape.constant(np.eye(4)), b),
    "matmul_batched": lambda x, w, k, b: dc.matmul(
        dc.linear(x, w, b), dc.reshape(x, x.shape[:-2] + (4, 5))),
    "attention": lambda x, w, k, b: dc.attention(dc.linear(x, w, b), x, x, 2),
    "relu_dropout": lambda x, w, k, b: dc.relu_dropout(
        dc.linear(x, w, b), np.broadcast_to(KEEP, x.shape), 1.0 / 0.3),
    "row_norms": lambda x, w, k, b: dc.row_norms(dc.linear(x, w, b)),
    "conv": lambda x, w, k, b: dc.dilated_conv1d_depthwise(x, k, b, 2),
    # dilation 5 on T=5: both outer taps fall past the ends
    "conv_dilation_t": lambda x, w, k, b: dc.dilated_conv1d_depthwise(
        x, k, b, 5),
    "concat_cols": lambda x, w, k, b: dc.concat_cols([x,
                                                      dc.linear(x, w, b)]),
    "reduce_mean": lambda x, w, k, b: dc.reduce(dc.linear(x, w, b),
                                                mode="mean"),
    "topk_mean": lambda x, w, k, b: dc.topk_mean(
        dc.row_norms(dc.linear(x, w, b)), 2),
}


class TestBatchAxis:
    @pytest.mark.parametrize("op", sorted(BATCHED_OPS))
    def test_finite_differences_on_3d_input(self, op):
        rng = np.random.default_rng(11)

        def build(p):
            tape = Tape()
            x, w, k, b = (tape.leaf(p[n], name=n) for n in "xwkb")
            out = BATCHED_OPS[op](x, w, k, b)
            # a fixed random probe makes every output entry count differently
            probe = np.random.default_rng(12).normal(size=out.value.shape)
            return _batch_sum(dc.hadamard(out, tape.constant(probe)))

        params = {"x": rng.normal(size=(3, 5, 4)), "w": rng.normal(size=(4, 4)),
                  "k": rng.normal(size=(4, 3)), "b": rng.normal(size=(1, 4))}
        report = finite_diff_check(build, params, eps=1e-5, tol=1e-6)
        assert report.passed, report

    @pytest.mark.parametrize("op", sorted(BATCHED_OPS))
    def test_each_video_alone(self, op):
        """A batched op equals the op applied to each video by itself."""
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 5, 4))
        w, k, b = (rng.normal(size=s) for s in ((4, 4), (4, 3), (1, 4)))

        def run(xv):
            tape = Tape()
            return BATCHED_OPS[op](tape.leaf(xv), tape.leaf(w), tape.leaf(k),
                                   tape.leaf(b)).value

        batched = run(x)
        for i in range(3):
            assert np.allclose(batched[i], run(x[i]), rtol=1e-13, atol=1e-15)

    def test_shared_weight_gradient_sums_over_batch(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 5, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=(1, 2))

        def grads(xv):
            tape = Tape()
            out = dc.linear(tape.leaf(xv), tape.leaf(w, name="w"),
                            tape.leaf(b, name="b"))
            return backward(_batch_sum(dc.hadamard(out, out)))

        batched = grads(x)
        for name in "wb":
            assert np.allclose(batched[name],
                               sum(grads(x[i])[name] for i in range(3)),
                               rtol=1e-13)

    def test_batched_matmul_needs_matching_batch(self):
        tape = Tape()
        with pytest.raises(ValueError, match="mismatch"):
            dc.matmul(tape.leaf(np.zeros((2, 3, 4))),
                      tape.leaf(np.zeros((3, 4, 2))))
        with pytest.raises(ValueError, match="mismatch"):  # see `linear`
            dc.matmul(tape.leaf(np.zeros((2, 3, 4))),
                      tape.leaf(np.zeros((4, 2))))

    @pytest.mark.parametrize("w, b", [((4, 2), (1, 3)), ((4, 2), (2, 2)),
                                      ((3, 2), (1, 2)), ((1, 4, 2), (1, 2))],
                             ids=["bias-width", "bias-rows", "weight-rows",
                                  "batched-weight"])
    def test_linear_shape_mismatch(self, w, b):
        tape = Tape()
        with pytest.raises(ValueError, match="linear shape mismatch"):
            dc.linear(tape.leaf(np.zeros((2, 3, 4))),
                      tape.leaf(np.zeros(w)), tape.leaf(np.zeros(b)))
