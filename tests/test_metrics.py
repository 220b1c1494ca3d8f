import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfl import metrics
from mtfl.dataio import VideoEntry
from mtfl.metrics import DegenerateLabelsError, expand_to_frames


def auc_and_ap(scores, labels):
    """AUC and AP of `scores` through `metrics.evaluate`, as one video
    whose intervals are the runs of label 1."""
    positive = np.asarray(labels).ravel() == 1
    edges = np.flatnonzero(np.diff(positive, prepend=False, append=False))
    intervals = list(zip(edges[0::2].tolist(), edges[1::2].tolist()))
    video = make_record(n_frames=positive.size, intervals=intervals)
    report = metrics.evaluate([video], [scores])
    return report.auc, report.ap


def roc(scores, labels):
    return auc_and_ap(scores, labels)[0]


def ap(scores, labels):
    return auc_and_ap(scores, labels)[1]


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
    """1-based average ranks by a loop over tie groups, kept as a
    reference."""
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
    """The tie-group loop that the AP of `auc_and_ap` replaced."""
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
    """AP as it was before it shared AUC's ascending sort: its own sort of
    the negated scores."""
    n_pos = int((labels == 1).sum())
    _, group = np.unique(-scores, return_inverse=True)
    group_tp = np.bincount(group, weights=(labels == 1))
    tp = np.cumsum(group_tp)
    seen = np.cumsum(np.bincount(group))
    return float(np.cumsum(group_tp / n_pos * (tp / seen))[-1])


def frame_level_auc_and_ap(scores, labels):
    """AUC and AP as `auc_and_ap` computed them frame by frame before it
    counted runs of frames: every frame's tie group from one `np.unique`
    of all scores, every frame's average rank, and positive frames summed
    one by one."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = labels == 1
    n_pos, n_neg = int(positive.sum()), int((labels == 0).sum())
    _, group, counts = np.unique(scores, return_inverse=True,
                                 return_counts=True)
    group = group.ravel()
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    auc = ((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0)
           / (n_pos * n_neg))
    group_tp = np.bincount(group, weights=positive)[::-1]
    tp = np.cumsum(group_tp)
    seen = np.cumsum(counts[::-1])
    return auc, float(np.cumsum(group_tp / n_pos * (tp / seen))[-1])


def loop_auc(scores, labels):
    """Mann-Whitney AUC from `loop_average_ranks`."""
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    return ((loop_average_ranks(scores)[labels == 1].sum()
             - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def tie_heavy_scores(rng, snippets=3000):
    """Snippet scores expanded to frames and written with 6 decimals, as
    score curves are: long runs of ties and many distinct values."""
    values = np.round(rng.beta(0.5, 0.5, size=snippets), 6)
    return np.repeat(values, rng.integers(1, 40, size=snippets))


class TestVectorizedMatchesLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_heavy_six_decimal_scores(self, seed):
        rng = np.random.default_rng(seed)
        scores = tie_heavy_scores(rng)
        labels = (rng.random(scores.size) < 0.3).astype(int)
        got = auc_and_ap(scores, labels)
        assert got == frame_level_auc_and_ap(scores, labels)
        assert abs(got[0] - loop_auc(scores, labels)) <= 1e-15
        assert abs(got[1] - loop_average_precision(scores, labels)) <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_shared_sort_equals_separate_metrics(self, seed):
        rng = np.random.default_rng(seed)
        snippets = np.round(rng.beta(0.5, 0.5, size=3000), 6)
        scores = np.repeat(snippets, rng.integers(1, 40, size=snippets.size))
        edges = np.sort(rng.choice(scores.size, size=200, replace=False))
        video = make_record(n_frames=scores.size,
                            intervals=list(zip(edges[0::2], edges[1::2])))
        labels = frame_ground_truth(video)
        report = metrics.evaluate([video], {"v": scores}, per_video=True)
        expected = (roc(scores, labels),
                    descending_sort_average_precision(scores, labels))
        assert (report.auc, report.ap) == expected
        assert (report.per_video["v"]["auc"],
                report.per_video["v"]["ap"]) == expected
        assert ap(scores, labels) == expected[1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_groups_equal_full_unique(self, seed):
        # runs and scattered repeats, both zeros, infinities and NaNs
        rng = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, 0.5, 0.25, np.inf, -np.inf, np.nan,
                           1.0, 0.5000001])
        scores = np.repeat(rng.choice(values, size=400),
                           rng.integers(1, 5, size=400))
        labels = rng.integers(0, 2, size=scores.size)
        # One-frame runs: `evaluate` rejects non-finite scores.
        positive = labels == 1
        got = metrics._runs_auc_and_ap(
            scores, np.ones(scores.size, dtype=np.int64), positive,
            int(positive.sum()), int((labels == 0).sum()))
        assert got == frame_level_auc_and_ap(scores, labels)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_runs_equal_frame_level_pooled_and_per_video(self, seed):
        """Counting runs of frames gives the frame-by-frame AUC and AP to
        the bit, pooled and per video: tie-heavy 6-decimal scores, interval
        edges inside runs of one score, runs of 0.0 and -0.0 side by side,
        and one-frame runs. Also the edges that cutting each video into
        runs adds: intervals that start at frame 0 or end at the last
        frame, intervals that share an edge, intervals listed out of
        order, and consecutive videos whose boundary frames share one
        score and one label, positive (videos 6 and 7) and negative
        (8 and 9)."""
        rng = np.random.default_rng(seed)
        videos, frame_scores = [], {}
        for i in range(10):
            scores = tie_heavy_scores(rng, snippets=int(rng.integers(5, 200)))
            if i % 3 == 1:  # signed zeros, alone and in runs
                scores[rng.random(scores.size) < 0.2] = 0.0
                scores[rng.random(scores.size) < 0.2] = -0.0
            if i % 3 == 2:  # one frame per run
                scores = np.round(rng.random(scores.size), 6)
            n = scores.size
            cuts = np.sort(rng.choice(np.arange(1, n), size=6, replace=False))
            a, b, c, d, e, f = cuts.tolist()
            intervals = {
                0: [], 1: [(a, b), (c, d), (e, f)],
                2: [(a, b), (c, d), (e, f)],
                3: [(0, a), (c, d), (e, n)],  # first and last frame
                4: [(a, b), (b, c), (e, f)],  # a shared edge
                5: [(e, f), (a, b), (c, d)],  # out of order
                6: [(e, n)], 7: [(0, a)], 8: [], 9: []}[i]
            if i in (7, 9):  # the previous video's last score, carried on
                scores[:int(rng.integers(1, n))] = last_score
            last_score = scores[-1]
            video = make_record(f"v{i}", int(bool(intervals)), n, intervals)
            videos.append(video)
            frame_scores[video.video_id] = scores
            if intervals and i < 6:
                # some interval edge falls inside a run of one score
                inside = [scores[a - 1] == scores[a] for a in cuts]
                assert any(inside) or i % 3 == 2
        report = metrics.evaluate(videos, frame_scores, per_video=True)
        pooled = np.concatenate([frame_scores[v.video_id] for v in videos])
        pooled_labels = np.concatenate(
            [frame_ground_truth(v) for v in videos])
        assert (report.auc, report.ap) == \
            frame_level_auc_and_ap(pooled, pooled_labels)
        assert (report.n_pos_frames, report.n_neg_frames) == \
            (pooled_labels.sum(), (pooled_labels == 0).sum())
        for v in videos:
            entry = report.per_video[v.video_id]
            if v.intervals:
                assert (entry["auc"], entry["ap"]) == frame_level_auc_and_ap(
                    frame_scores[v.video_id], frame_ground_truth(v))
            else:
                assert "auc" not in entry
        # Curves fed one at a time, as `eval` feeds them, give the same
        # report as the dict.
        one_at_a_time = (frame_scores[v.video_id] for v in videos)
        assert metrics.evaluate(videos, one_at_a_time, per_video=True) \
            == report

    def test_shared_sort_keeps_degenerate_label_rules(self):
        with pytest.raises(DegenerateLabelsError, match="AUC"):
            auc_and_ap([0.1, 0.2], [1, 1])
        with pytest.raises(DegenerateLabelsError, match="AUC"):
            auc_and_ap([0.1, 0.2], [0, 0])


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
        assert roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_label_inversion_symmetry(self):
        scores = np.random.default_rng(0).uniform(size=20)
        labels = np.random.default_rng(1).integers(0, 2, size=20)
        while labels.min() == labels.max():
            labels = np.random.default_rng(2).integers(0, 2, size=20)
        assert np.isclose(roc(scores, labels) + roc(scores, 1 - labels),
                          1.0, atol=1e-12)

    def test_hand_example(self):
        assert roc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            roc([0.1, 0.9], [1, 1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_oracle_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        scores = rng.integers(0, 6, size=n) / 5.0  # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert np.isclose(roc(scores, labels),
                          brute_force_auc(scores, labels), atol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = roc(scores, labels)
        assert np.isclose(roc(np.exp(5 * scores), labels), base, atol=1e-12)
        assert np.isclose(roc(scores ** 3, labels), base, atol=1e-12)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(42)
        scores = rng.uniform(size=10_000)
        labels = rng.integers(0, 2, size=10_000)
        assert 0.47 <= roc(scores, labels) <= 0.53


class TestAveragePrecision:
    def test_all_positives_first(self):
        assert ap([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_one_positive_last(self):
        for n in (3, 5, 10):
            scores = np.linspace(1, 0.1, n)
            labels = np.zeros(n, dtype=int)
            labels[-1] = 1
            assert np.isclose(ap(scores, labels), 1 / n,
                              atol=1e-12)

    def test_hand_walked_steps(self):
        got = ap([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert np.isclose(got, 5 / 6, atol=1e-12)

    def test_zero_positives_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            ap([0.5, 0.6], [0, 0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_threshold_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        scores = rng.integers(0, 6, size=n) / 5.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert np.isclose(ap(scores, labels),
                          brute_force_ap(scores, labels), atol=1e-12)


def make_record(vid="v", label=1, n_frames=5, intervals=((2, 4),)):
    return VideoEntry(video_id=vid, label=label, n_frames=n_frames,
                      intervals=list(intervals))


def frame_ground_truth(video):
    """One label per frame: 1 inside an interval, 0 outside."""
    gt = np.zeros(video.n_frames, dtype=np.int64)
    for start, end in video.intervals:
        gt[start:end] = 1
    return gt


def per_frame_reference(video, scores) -> bytes:
    """The per-frame loop `export_score_curve` replaced: one formatted
    line per frame."""
    gt = frame_ground_truth(video)
    lines = [f"{f},{scores[f]:.6f},{gt[f]}" for f in range(video.n_frames)]
    return ("\n".join(lines) + "\n").encode()


def export(video, scores, path):
    metrics.export_score_curve(video, scores, path,
                               metrics.frame_numbers(video.n_frames))


# Interval layouts of a 5000-frame video, each an edge case of the run cut.
LAYOUTS = {
    "inside": [(100, 900), (2000, 2001)],
    "from-frame-0": [(0, 950), (2000, 2001)],
    "to-n-frames": [(100, 950), (2050, 5000)],
    "shared-edge": [(100, 950), (950, 2001)],
    "out-of-order": [(2000, 2001), (3050, 4000), (100, 950)],
}
# (score kind, interval layout)
BYTES_CASES = {kind: (kind, "inside") for kind in
               ["random", "tie-heavy", "rounding-edges", "float32"]} | {
    f"{kind}-{layout}": (kind, layout) for layout in list(LAYOUTS)[1:]
    for kind in ["tie-heavy", "rounding-edges"]}


class TestExportScoreCurve:
    def test_gt_column(self, tmp_path):
        v = make_record()
        path = tmp_path / "v.csv"
        export(v, np.linspace(0, 1, 5), path)
        gts = [line.split(",")[2] for line in path.read_text().splitlines()]
        assert gts == ["0", "0", "1", "1", "0"]

    def test_scores_match_expansion(self, tmp_path):
        v = make_record(n_frames=7, intervals=())
        v.label = 0
        snippet = np.array([0.25, 0.75])
        frames = expand_to_frames(snippet, 7)
        path = tmp_path / "v.csv"
        export(v, frames, path)
        written = [float(line.split(",")[1])
                   for line in path.read_text().splitlines()]
        assert np.allclose(written, frames, atol=5e-7)  # 6-decimal format

    @pytest.mark.parametrize("kind, layout", BYTES_CASES.values(),
                             ids=BYTES_CASES)
    def test_bytes_equal_per_frame_format(self, tmp_path, kind, layout):
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
        v = make_record(n_frames=n, intervals=LAYOUTS[layout])
        path = tmp_path / "v.csv"
        export(v, scores, path)
        assert path.read_bytes() == per_frame_reference(v, scores)

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 9999, 10000,
                                   10001])
    def test_bytes_equal_per_frame_format_at_digit_boundaries(self, tmp_path,
                                                              n):
        rng = np.random.default_rng(n)
        scores = expand_to_frames(rng.choice([0.0, -0.0, 0.5, 0.1234565],
                                             size=8), n)
        v = make_record(n_frames=n, intervals=((n // 3, n // 2 + 1),))
        path = tmp_path / "v.csv"
        export(v, scores, path)
        assert path.read_bytes() == per_frame_reference(v, scores)

    def test_gt_change_inside_run_of_equal_scores(self, tmp_path):
        v = make_record(n_frames=12, intervals=((3, 5), (8, 12)))
        scores = np.full(12, 0.25)
        path = tmp_path / "v.csv"
        export(v, scores, path)
        assert path.read_bytes() == per_frame_reference(v, scores)
        gts = [line.split(",")[2] for line in path.read_text().splitlines()]
        assert "".join(gts) == "000110001111"

    def test_shared_frame_numbers_serve_shorter_curves(self, tmp_path):
        rng = np.random.default_rng(5)
        numbers = metrics.frame_numbers(10001)
        for n in (10001, 7, 101, 1, 10001):
            v = make_record(n_frames=n, intervals=((0, (n + 1) // 2),))
            scores = expand_to_frames(rng.uniform(size=32), n)
            path = tmp_path / f"v{n}.csv"
            metrics.export_score_curve(v, scores, path, numbers)
            assert path.read_bytes() == per_frame_reference(v, scores), n

    def test_frame_numbers_hold_only_their_text(self):
        """What `score` holds while it exports is the column text alone:
        line starts follow from the frame numbers, so no list of them is
        kept."""
        tracemalloc.start()
        try:
            numbers = metrics.frame_numbers(200_000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        text = "".join(f"{f}\n" for f in range(200_000))
        assert numbers == text
        assert held <= 1.1 * len(text)

    def test_reexport_byte_identical(self, tmp_path):
        v = make_record()
        scores = np.random.default_rng(0).uniform(size=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export(v, scores, a)
        export(v, scores, b)
        assert a.read_bytes() == b.read_bytes()


def outcome(read, path):
    """What `read` makes of `path`: its scores, or its error's text."""
    try:
        return read(path)
    except ValueError as e:
        return str(e)


# (curve bytes, whether they keep the layout `export_score_curve` writes)
CURVE_EDGES = {
    "cr-inside-line": (b"0,0.25\r0000,0\n1,0.500000,1\n", False),
    "crlf": (b"0,0.250000,0\r\n1,0.500000,1\r\n", False),
    "comma-in-frame": (b"1,2,0.250000,0\n", False),
    "point-in-frame": (b"1.5,0.250000,0\n", False),
    "5-decimals": (b"0,0.25000,0\n", False),
    "7-decimals": (b"0,0.2500000,0\n", False),
    "minus-zero": (b"0,-0.000000,0\n", False),
    "zero": (b"0,0.000000,0\n", True),
    "one": (b"0,1.000000,1\n", True),
    "leading-space": (b" 0,0.250000,0\n", False),
    "tab-before-gt": (b"0,0.250000,\t0\n", False),
    "no-final-newline": (b"0,0.250000,0\n1,0.500000,1", False),
    "blank-line-between": (b"0,0.250000,0\n\n1,0.500000,1\n", False),
    "nul-in-frame": (b"0\x00,0.250000,0\n", False),
    "arabic-indic-zero-in-frame": ("\u0660,0.250000,0\n".encode(), False),
    "empty-frame": (b",0.250000,0\n", True),
    "10-digit-frame": (b"1234567890,0.250000,0\n", True),
    "letter-in-score": (b"0,0.25x000,0\n", False),
    "colon-in-score": (b"0,0.25:000,0\n", False),  # the byte after "9"
    "short-line-of-separators": (b",.,\n", False),
    # Each of these breaks one rule of the layout and keeps the others.
    "2-digit-integer-part": (b"1,20.250000,0\n", False),
    "point-one-place-right": (b"0,02.50000,0\n", False),
    "empty-gt-after-7-decimals": (b"0,0.2500001,\n", False),
    "digits-after-last-newline": (b"0,0.250000,0\n7", False),
}


class TestReadScoreCurve:
    @pytest.mark.parametrize("scores", [
        [0.0, 1.0, 5e-7, 0.9999996] * 3,
        np.random.default_rng(4).uniform(size=10001),
        np.repeat(np.random.default_rng(5).uniform(size=40), 250),
    ], ids=["edges", "random", "runs"])
    def test_exported_curves_skip_the_line_rule(self, tmp_path, monkeypatch,
                                                scores):
        scores = np.asarray(scores)
        v = make_record(n_frames=scores.size,
                        intervals=((1, 3), (7, scores.size - 1)))
        path = tmp_path / "v.csv"
        export(v, scores, path)
        expected = [float(line.split(",")[1])
                    for line in path.read_text().splitlines()]

        def line_rule(path):
            raise AssertionError("line rule called")

        monkeypatch.setattr(metrics, "_read_curve_lines", line_rule)
        read = metrics.read_score_curve(path)
        assert np.array_equal(read, expected)
        assert not np.signbit(read).any()

    @pytest.mark.parametrize("text, layout", CURVE_EDGES.values(),
                             ids=CURVE_EDGES)
    def test_agrees_with_line_rule_at_edges(self, tmp_path, monkeypatch,
                                            text, layout):
        path = tmp_path / "v.csv"
        path.write_bytes(text)
        line_rule = metrics._read_curve_lines
        expected = outcome(line_rule, path)
        calls = []

        def counted(path):
            calls.append(path)
            return line_rule(path)

        monkeypatch.setattr(metrics, "_read_curve_lines", counted)
        got = outcome(metrics.read_score_curve, path)
        assert len(calls) == (not layout)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


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

    def test_exported_curves_evaluate_as_formatted_scores(self, tmp_path):
        """`export_score_curve` -> `read_score_curve` -> `evaluate` gives
        the report of the in-memory scores as their 6-decimal text reads
        back, -0.0 kept, under every interval layout and a normal video."""
        rng = np.random.default_rng(6)
        videos = [make_record(f"v-{name}", 1, 5000, intervals)
                  for name, intervals in LAYOUTS.items()]
        videos.append(make_record("v-normal", 0, 5000, []))
        in_memory, read = {}, {}
        for v in videos:
            # tie-heavy, with runs of 0.0, -0.0 and -4e-7 ("-0.000000")
            pool = [0.0, -0.0, -4e-7, 0.1234565, 0.5, 1.0,
                    *rng.uniform(size=4)]
            scores = expand_to_frames(rng.choice(pool, size=37), 5000)
            path = tmp_path / f"{v.video_id}.csv"
            export(v, scores, path)
            in_memory[v.video_id] = np.array([float(f"{s:.6f}")
                                              for s in scores])
            read[v.video_id] = metrics.read_score_curve(path)
            assert np.array_equal(np.signbit(read[v.video_id]),
                                  np.signbit(in_memory[v.video_id]))
        assert metrics.evaluate(videos, read, per_video=True) == \
            metrics.evaluate(videos, in_memory, per_video=True)

    def test_length_mismatch_rejected(self):
        videos = [make_record("a", 1, 4, [(0, 2)])]
        with pytest.raises(ValueError, match="scores"):
            metrics.evaluate(videos, {"a": np.ones(3)})
