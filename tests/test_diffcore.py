import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtfl import diffcore as dc
from mtfl.diffcore import Tape, backward, finite_diff_check


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
    def test_uniform(self):
        tape = Tape()
        out = dc.softmax_rows(tape.leaf([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_analytic_shift(self):
        for c in (-50.0, 0.0, 3.7):
            tape = Tape()
            out = dc.softmax_rows(tape.leaf([[c, c + np.log(2)]]))
            assert np.allclose(out.value, [[1 / 3, 2 / 3]], atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed):
        x = np.random.default_rng(seed).normal(size=(4, 5)) * 10
        tape = Tape()
        out = dc.softmax_rows(tape.leaf(x))
        assert np.allclose(out.value.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out.value >= 0)

    def test_shift_invariance(self):
        x = np.random.default_rng(3).normal(size=(3, 4))
        tape = Tape()
        base = dc.softmax_rows(tape.leaf(x)).value
        shifted = dc.softmax_rows(tape.leaf(x + 7.25)).value
        assert np.allclose(base, shifted, atol=1e-12)

    def test_overflow_safe(self):
        tape = Tape()
        out = dc.softmax_rows(tape.leaf([[1000.0, 1000.0]]))
        assert np.allclose(out.value, [[0.5, 0.5]])


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
            if y == 1:
                loss = dc.scale(dc.log_clamped(s), -1.0)
            else:
                loss = dc.scale(dc.log_clamped(
                    dc.sub(tape.constant([[1.0]]), s)), -1.0)
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
            h = dc.softmax_rows(dc.matmul(tape.constant(x), w))
            h = dc.dilated_conv1d_depthwise(h, k, b, 2)
            h = dc.sigmoid(h)
            return dc.reduce(dc.hadamard(h, h), mode="mean")

        params = {"w": rng.normal(size=(4, 4)), "k": rng.normal(size=(4, 3)),
                  "b": rng.normal(size=(1, 4))}
        report = finite_diff_check(build, params, eps=1e-5, tol=1e-4)
        assert report.passed, report


def _batch_sum(node):
    """Scalar sum of every entry of a batched node."""
    per_matrix = dc.reduce(node, mode="sum")
    return dc.reduce(dc.reshape(per_matrix, (1, per_matrix.value.size)),
                     mode="sum")


# Each case maps a (3, 5, 4) batch x and 2-D weights w (4x4), k (4x3) and
# b (1x4) to a batched node.
BATCHED_OPS = {
    "matmul_shared_weight": lambda x, w, k, b: dc.matmul(x, w),
    "matmul_batched": lambda x, w, k, b: dc.matmul(dc.matmul(x, w),
                                                   dc.transpose(x)),
    "add_rowvec": lambda x, w, k, b: dc.add_rowvec(x, b),
    "softmax_rows": lambda x, w, k, b: dc.softmax_rows(dc.matmul(x, w)),
    "row_norms": lambda x, w, k, b: dc.row_norms(dc.matmul(x, w)),
    "conv": lambda x, w, k, b: dc.dilated_conv1d_depthwise(x, k, b, 2),
    "concat_cols": lambda x, w, k, b: dc.concat_cols([x, dc.matmul(x, w)]),
    "slice_rows": lambda x, w, k, b: dc.slice_rows(dc.matmul(x, w), 1, 4),
    "reduce_mean": lambda x, w, k, b: dc.reduce(dc.matmul(x, w), mode="mean"),
    "topk_mean": lambda x, w, k, b: dc.topk_mean(
        dc.row_norms(dc.matmul(x, w)), 2),
    "heads": lambda x, w, k, b: dc.transpose(
        dc.reshape(x, x.shape[:-1] + (2, 2)), -3, -2),
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

        def grad_w(xv):
            tape = Tape()
            out = dc.matmul(tape.leaf(xv), tape.leaf(w, name="w"))
            return backward(_batch_sum(dc.hadamard(out, out)))["w"]

        assert np.allclose(grad_w(x), sum(grad_w(x[i]) for i in range(3)),
                           rtol=1e-13)

    def test_batched_matmul_needs_matching_batch(self):
        tape = Tape()
        with pytest.raises(ValueError, match="mismatch"):
            dc.matmul(tape.leaf(np.zeros((2, 3, 4))),
                      tape.leaf(np.zeros((3, 4, 2))))
