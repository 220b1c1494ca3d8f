import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfl import metrics
from mtfl.dataio import VideoRecord
from mtfl.metrics import (DegenerateLabelsError, average_precision,
                          expand_to_frames, roc_auc)


def brute_force_auc(scores, labels):
    """Pairwise counting over all positive/negative pairs, ties worth 1/2."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.size * neg.size)


def brute_force_ap(scores, labels):
    """Threshold sweep over all distinct scores, step integration."""
    n_pos = int(labels.sum())
    thresholds = np.unique(scores)[::-1]
    ap = 0.0
    prev_recall = 0.0
    for th in thresholds:
        predicted = scores >= th
        tp = int((predicted & (labels == 1)).sum())
        precision = tp / predicted.sum()
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def loop_average_ranks(scores):
    """The tie-group loop that `_average_ranks` replaced, kept as a reference."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j < scores.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0
        i = j
    return ranks


def loop_average_precision(scores, labels):
    """The tie-group loop that `average_precision` replaced."""
    n_pos = int((labels == 1).sum())
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    ap = 0.0
    tp = 0
    i = 0
    n = scores.size
    while i < n:
        j = i
        group_tp = 0
        while j < n and s[j] == s[i]:
            group_tp += int(y[j] == 1)
            j += 1
        prev_tp = tp
        tp += group_tp
        precision = tp / j
        ap += (tp - prev_tp) / n_pos * precision
        i = j
    return ap


def descending_sort_average_precision(scores, labels):
    """`average_precision` as it was before AP shared AUC's ascending sort:
    its own sort of the negated scores."""
    n_pos = int((labels == 1).sum())
    _, group = np.unique(-scores, return_inverse=True)
    group_tp = np.bincount(group, weights=(labels == 1))
    tp = np.cumsum(group_tp)
    seen = np.cumsum(np.bincount(group))
    return float(np.cumsum(group_tp / n_pos * (tp / seen))[-1])


class TestVectorizedMatchesLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_heavy_six_decimal_scores(self, seed):
        # snippet scores expanded to frames and written with 6 decimals, as
        # score curves are: long runs of ties and many distinct values
        rng = np.random.default_rng(seed)
        snippets = np.round(rng.beta(0.5, 0.5, size=3000), 6)
        scores = np.repeat(snippets, rng.integers(1, 40, size=snippets.size))
        labels = (rng.random(scores.size) < 0.3).astype(int)
        ranks = metrics._average_ranks(*metrics._tie_groups(scores))
        assert np.allclose(ranks, loop_average_ranks(scores), rtol=0,
                           atol=1e-15)
        assert abs(average_precision(scores, labels)
                   - loop_average_precision(scores, labels)) <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_shared_sort_equals_separate_metrics(self, seed):
        rng = np.random.default_rng(seed)
        snippets = np.round(rng.beta(0.5, 0.5, size=3000), 6)
        scores = np.repeat(snippets, rng.integers(1, 40, size=snippets.size))
        edges = np.sort(rng.choice(scores.size, size=200, replace=False))
        video = make_record(n_frames=scores.size,
                            intervals=list(zip(edges[0::2], edges[1::2])))
        labels = metrics.frame_ground_truth(video)
        report = metrics.evaluate([video], {"v": scores}, per_video=True)
        expected = (roc_auc(scores, labels),
                    descending_sort_average_precision(scores, labels))
        assert (report.auc, report.ap) == expected
        assert (report.per_video["v"]["auc"],
                report.per_video["v"]["ap"]) == expected
        assert average_precision(scores, labels) == expected[1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_groups_equal_full_unique(self, seed):
        # runs and scattered repeats, both zeros, infinities and NaNs
        rng = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, 0.5, 0.25, np.inf, -np.inf, np.nan,
                           1.0, 0.5000001])
        scores = np.repeat(rng.choice(values, size=400),
                           rng.integers(1, 5, size=400))
        group, counts = metrics._tie_groups(scores)
        _, expected_group, expected_counts = np.unique(
            scores, return_inverse=True, return_counts=True)
        assert np.array_equal(group, expected_group.ravel())
        assert np.array_equal(counts, expected_counts)

    def test_shared_sort_keeps_degenerate_label_rules(self):
        with pytest.raises(DegenerateLabelsError, match="AUC"):
            metrics._auc_and_ap([0.1, 0.2], [1, 1])
        with pytest.raises(DegenerateLabelsError, match="AUC"):
            metrics._auc_and_ap([0.1, 0.2], [0, 0])


class TestExpandToFrames:
    def test_even_split(self):
        assert np.array_equal(expand_to_frames([0.1, 0.9], 4),
                              [0.1, 0.1, 0.9, 0.9])

    def test_identity(self):
        s = np.linspace(0, 1, 8)
        assert np.array_equal(expand_to_frames(s, 8), s)

    def test_floor_mapping(self):
        assert np.array_equal(expand_to_frames([0.2, 0.8], 5),
                              [0.2, 0.2, 0.2, 0.8, 0.8])


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_label_inversion_symmetry(self):
        scores = np.random.default_rng(0).uniform(size=20)
        labels = np.random.default_rng(1).integers(0, 2, size=20)
        while labels.min() == labels.max():
            labels = np.random.default_rng(2).integers(0, 2, size=20)
        assert np.isclose(roc_auc(scores, labels) + roc_auc(scores, 1 - labels),
                          1.0, atol=1e-12)

    def test_hand_example(self):
        assert roc_auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.9], [1, 1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_oracle_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        scores = rng.integers(0, 6, size=n) / 5.0  # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert np.isclose(roc_auc(scores, labels),
                          brute_force_auc(scores, labels), atol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        assert np.isclose(roc_auc(np.exp(5 * scores), labels), base, atol=1e-12)
        assert np.isclose(roc_auc(scores ** 3, labels), base, atol=1e-12)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(42)
        scores = rng.uniform(size=10_000)
        labels = rng.integers(0, 2, size=10_000)
        assert 0.47 <= roc_auc(scores, labels) <= 0.53


class TestAveragePrecision:
    def test_all_positives_first(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_one_positive_last(self):
        for n in (3, 5, 10):
            scores = np.linspace(1, 0.1, n)
            labels = np.zeros(n, dtype=int)
            labels[-1] = 1
            assert np.isclose(average_precision(scores, labels), 1 / n,
                              atol=1e-12)

    def test_hand_walked_steps(self):
        got = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert np.isclose(got, 5 / 6, atol=1e-12)

    def test_zero_positives_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            average_precision([0.5, 0.6], [0, 0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_threshold_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 51))
        scores = rng.integers(0, 6, size=n) / 5.0
        labels = rng.integers(0, 2, size=n)
        if labels.max() == 0:
            labels[0] = 1
        assert np.isclose(average_precision(scores, labels),
                          brute_force_ap(scores, labels), atol=1e-12)


def make_record(vid="v", label=1, n_frames=5, intervals=((2, 4),)):
    clips = np.zeros((2, 3))
    return VideoRecord(video_id=vid, label=label, n_frames=n_frames,
                       clips_short=clips, clips_medium=clips, clips_long=clips,
                       intervals=list(intervals))


class TestExportScoreCurve:
    def test_gt_column(self, tmp_path):
        v = make_record()
        path = tmp_path / "v.csv"
        metrics.export_score_curve(v, np.linspace(0, 1, 5), path)
        gts = [line.split(",")[2] for line in path.read_text().splitlines()]
        assert gts == ["0", "0", "1", "1", "0"]

    def test_scores_match_expansion(self, tmp_path):
        v = make_record(n_frames=7, intervals=())
        v.label = 0
        snippet = np.array([0.25, 0.75])
        frames = expand_to_frames(snippet, 7)
        path = tmp_path / "v.csv"
        metrics.export_score_curve(v, frames, path)
        written = [float(line.split(",")[1])
                   for line in path.read_text().splitlines()]
        assert np.allclose(written, frames, atol=5e-7)  # 6-decimal format

    @pytest.mark.parametrize("kind", ["random", "tie-heavy", "rounding-edges",
                                      "float32"])
    def test_bytes_equal_per_frame_format(self, tmp_path, kind):
        rng = np.random.default_rng(3)
        n = 5000
        if kind == "random":
            scores = rng.uniform(size=n)
        elif kind == "tie-heavy":
            scores = np.repeat(rng.uniform(size=50), n // 50)
        elif kind == "rounding-edges":
            edges = [0.0000005, 0.0000015, 0.9999995, 0.1234565, 0.0, -0.0,
                     1.0, 5e-7 - 1e-18, np.nextafter(5e-7, 1), -4e-7, 1e-300]
            scores = rng.choice(edges, size=n)
        else:
            scores = rng.uniform(size=n).astype(np.float32)
        v = make_record(n_frames=n, intervals=((100, 900), (2000, 2001)))
        path = tmp_path / "v.csv"
        metrics.export_score_curve(v, scores, path)
        # the per-frame loop export_score_curve replaced, as a reference
        gt = metrics.frame_ground_truth(v)
        lines = [f"{f},{scores[f]:.6f},{gt[f]}" for f in range(n)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_reexport_byte_identical(self, tmp_path):
        v = make_record()
        scores = np.random.default_rng(0).uniform(size=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        metrics.export_score_curve(v, scores, a)
        metrics.export_score_curve(v, scores, b)
        assert a.read_bytes() == b.read_bytes()


class TestEvaluate:
    def test_pooled_report(self):
        videos = [make_record("a", 1, 4, [(0, 2)]),
                  make_record("b", 0, 4, [])]
        frame_scores = {"a": np.array([0.9, 0.8, 0.1, 0.2]),
                        "b": np.array([0.1, 0.3, 0.2, 0.1])}
        report = metrics.evaluate(videos, frame_scores, per_video=True)
        assert report.auc == 1.0
        assert report.ap == 1.0
        assert report.n_pos_frames == 2
        assert report.n_neg_frames == 6
        assert "a" in report.per_video

    def test_length_mismatch_rejected(self):
        videos = [make_record("a", 1, 4, [(0, 2)])]
        with pytest.raises(ValueError, match="scores"):
            metrics.evaluate(videos, {"a": np.ones(3)})
