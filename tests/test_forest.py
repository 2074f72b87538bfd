import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.forest import BLOCK_ROWS, RandomForest

from model_edits import copied, dump, through_bytes


def separable_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 12))
    y = (x[:, 3] + 0.5 * x[:, 7] > 0).astype(np.int64)
    return x, y


def nested_walk(model, row):
    """Oracle: one row scaled in plain Python floats and walked down each
    tree of ``to_arrays`` node by node, ``<=`` going left, votes summed
    in tree order."""
    scalars, arrays = model.to_arrays()
    feature, threshold, left, right, vote = (
        arrays[name].tolist() for name in ("feature", "threshold", "left", "right", "vote"))
    scaled = [
        (float(v) - mean) / std
        for v, mean, std in zip(row, scalars["feature_means"], scalars["feature_stds"])
    ]
    votes = 0.0
    for node in arrays["roots"].tolist():
        while feature[node] >= 0:
            node = left[node] if scaled[feature[node]] <= threshold[node] else right[node]
        votes += vote[node]
    return votes / len(arrays["roots"])


def thresholds(model):
    """Every (feature, threshold) split of the model's trees."""
    return [(f, t) for f, t in zip(model.feature.tolist(), model.threshold.tolist()) if f >= 0]


def flat_forest(n_features: int, nodes: list[tuple], roots=(0,)) -> tuple[dict, dict]:
    """The scalars and arrays of a forest of ``(feature, threshold, left,
    right, vote)`` nodes, scaling being the identity."""
    feature, threshold, left, right, vote = zip(*nodes)
    return {"n_trees": len(roots), "max_depth": 2, "seed": 0,
            "feature_means": [0.0] * n_features, "feature_stds": [1.0] * n_features}, {
        "roots": np.array(roots, dtype="<i8"), "feature": np.array(feature, dtype="<i8"),
        "threshold": np.array(threshold, dtype="<f8"), "left": np.array(left, dtype="<i8"),
        "right": np.array(right, dtype="<i8"), "vote": np.array(vote, dtype="|u1")}


class TestRandomForest:
    def test_separable_training_accuracy(self):
        x, y = separable_data()
        model = RandomForest(n_trees=50, max_depth=8, seed=1).fit(x, y)
        predictions = (model.predict_proba(x) >= 0.5).astype(int)
        assert (predictions == y).mean() >= 0.99

    def test_permuted_labels_near_chance(self):
        x, y = separable_data(n=600, seed=2)
        rng = np.random.default_rng(3)
        y_perm = rng.permutation(y)
        x_train, x_test = x[:480], x[480:]
        y_train, y_test = y_perm[:480], y_perm[480:]
        model = RandomForest(n_trees=50, max_depth=8, seed=4).fit(x_train, y_train)
        acc = ((model.predict_proba(x_test) >= 0.5).astype(int) == y_test).mean()
        assert 0.4 <= acc <= 0.6

    def test_seeded_runs_identical_digest(self):
        x, y = separable_data(n=200, seed=5)
        digests = set()
        for _ in range(2):
            model = RandomForest(n_trees=20, max_depth=6, seed=9).fit(x, y)
            digests.add(hashlib.sha256(dump(model)).hexdigest())
        assert len(digests) == 1

    def test_single_class_is_error(self):
        x = np.zeros((10, 12))
        with pytest.raises(ValueError):
            RandomForest(seed=0).fit(x, np.ones(10, dtype=np.int64))

    def test_non_binary_labels_rejected(self):
        x = np.zeros((10, 12))
        y = np.arange(10)
        with pytest.raises(ValueError):
            RandomForest(seed=0).fit(x, y)

    def test_json_roundtrip_bit_exact(self):
        x, y = separable_data(n=150, seed=7)
        model = RandomForest(n_trees=10, max_depth=5, seed=11).fit(x, y)
        again = through_bytes(model)
        assert dump(again) == dump(model)
        probe = np.asarray(x[:37])
        assert np.array_equal(model.predict_proba(probe), again.predict_proba(probe))

    def test_prediction_is_vote_fraction(self):
        x, y = separable_data(n=100, seed=8)
        model = RandomForest(n_trees=40, max_depth=4, seed=12).fit(x, y)
        proba = model.predict_proba(x[:20])
        assert np.all((proba >= 0.0) & (proba <= 1.0))
        votes = proba * 40
        assert np.allclose(votes, np.round(votes))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_trees=st.integers(1, 12),
        depth=st.integers(1, 7),
        unit_scale=st.booleans(),
        data=st.data(),
    )
    def test_predict_proba_equals_nested_walk(self, seed, n_trees, depth, unit_scale, data):
        x, y = separable_data(n=120, seed=seed)
        model = RandomForest(n_trees=n_trees, max_depth=depth, seed=seed).fit(x, y)
        if unit_scale:
            # Scaling becomes the identity, so a raw value can equal a
            # split threshold exactly.
            scalars, arrays = model.to_arrays()
            model = RandomForest.from_arrays(
                {**scalars, "feature_means": [0.0] * 12, "feature_stds": [1.0] * 12}, arrays)
        splits = thresholds(model)
        special = [np.inf, -np.inf, 0.0]
        rng = np.random.default_rng(seed)
        rows = [x[i] for i in range(0, 120, 7)]
        for _ in range(data.draw(st.integers(1, 30))):
            row = rng.normal(scale=2.0, size=12)
            for _ in range(data.draw(st.integers(0, 4))):
                col = data.draw(st.integers(0, 11))
                if splits and data.draw(st.booleans()):
                    col, t = data.draw(st.sampled_from(splits))
                    row[col] = t if unit_scale else t * model.feature_stds[col] + model.feature_means[col]
                else:
                    row[col] = data.draw(st.sampled_from(special))
            rows.append(row)
        batch = np.array(rows)
        proba = model.predict_proba(batch)
        assert proba.tolist() == [nested_walk(model, row) for row in rows]
        # A row scores the same alone as in the batch.
        for row, score in zip(rows[:5], proba):
            assert model.predict_proba(row[None])[0] == score
            assert model.predict_proba([row.tolist()])[0] == score

    def test_blocks_score_like_single_rows(self):
        x, y = separable_data(n=200, seed=5)
        model = RandomForest(n_trees=7, max_depth=5, seed=6).fit(x, y)
        probe = np.random.default_rng(7).normal(size=(2 * BLOCK_ROWS + 3, 12))
        proba = model.predict_proba(probe)
        assert proba.tolist() == [model.predict_proba(row[None])[0] for row in probe]

    def test_empty_batch_gives_empty_array(self):
        x, y = separable_data(n=100, seed=17)
        model = RandomForest(n_trees=5, max_depth=3, seed=18).fit(x, y)
        for empty in (np.array([]), np.zeros((0, 12)), []):
            proba = model.predict_proba(empty)
            assert proba.shape == (0,)
            assert proba.dtype == np.float64

    def test_from_json_rejects_a_split_outside_the_features(self):
        """A split on column 3 of a 3-feature model would score a row
        with its neighbour's value; it is refused at load."""
        nodes = [[2, 0.5, 1, 2, 0], [-1, 0.0, 1, 1, 0], [-1, 0.0, 2, 2, 1]]
        RandomForest.from_arrays(*flat_forest(3, nodes))
        for feature in (3, -2):
            nodes[0][0] = feature
            with pytest.raises(ValueError, match=f"feature {feature} of a 3-feature"):
                RandomForest.from_arrays(*flat_forest(3, nodes))
        # -1 makes the node a leaf, and a leaf is its own child.
        nodes[0][0] = -1
        with pytest.raises(ValueError, match="leaf 0 is not its own left and right child"):
            RandomForest.from_arrays(*flat_forest(3, nodes))

    def test_from_json_rejects_unequal_means_and_stds(self):
        x, y = separable_data(n=100, seed=3)
        scalars, arrays = RandomForest(n_trees=2, max_depth=2, seed=0).fit(x, y).to_arrays()
        for short in ("feature_means", "feature_stds"):
            with pytest.raises(ValueError, match="feature means but"):
                RandomForest.from_arrays({**scalars, short: scalars[short][:-1]}, arrays)

    def test_untrained_is_error(self):
        with pytest.raises(ValueError):
            RandomForest(seed=0).predict_proba(np.zeros((1, 12)))
        with pytest.raises(ValueError):
            RandomForest(seed=0).predict_proba(np.zeros((0, 12)))


class TestFitChecks:
    def test_forest_needs_a_tree(self):
        for n_trees in (0, -1):
            with pytest.raises(ValueError, match="at least one tree"):
                RandomForest(n_trees=n_trees)

    def test_trees_need_a_depth(self):
        x, y = separable_data(n=100, seed=3)
        scalars, arrays = RandomForest(n_trees=2, max_depth=2, seed=0).fit(x, y).to_arrays()
        for depth in (0, -1):
            with pytest.raises(ValueError, match="depth of at least 1"):
                RandomForest(max_depth=depth)
            with pytest.raises(ValueError, match="depth of at least 1"):
                RandomForest.from_arrays({**scalars, "max_depth": depth}, arrays)

    def test_from_json_rejects_a_forest_with_no_trees(self):
        x, y = separable_data(n=100, seed=3)
        scalars, arrays = RandomForest(n_trees=2, max_depth=2, seed=0).fit(x, y).to_arrays()
        with pytest.raises(ValueError, match="forest has no trees"):
            RandomForest.from_arrays(scalars, {**arrays, "roots": arrays["roots"][:0]})
        with pytest.raises(ValueError, match="at least one tree"):
            RandomForest.from_arrays({**scalars, "n_trees": 0}, arrays)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_fit_rejects_a_non_finite_value(self, value):
        x, y = separable_data(n=50, seed=4)
        x[7, 2] = value
        with pytest.raises(ValueError, match="must be finite"):
            RandomForest(n_trees=2, seed=0).fit(x, y)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_fit_rejects_values_whose_scaling_overflows(self):
        x, y = separable_data(n=50, seed=4)
        x[:25, 5] = 1.5e308
        x[25:, 5] = -1.5e308
        with pytest.raises(ValueError, match="overflow when scaled"):
            RandomForest(n_trees=2, seed=0).fit(x, y)


class TestTreeChecks:
    """``from_arrays`` takes only trees that every walk ends in."""

    # Two trees of three nodes each, on a 2-feature model.
    NODES = [(0, 0.5, 1, 2, 0), (-1, 0.0, 1, 1, 0), (-1, 0.0, 2, 2, 1),
             (1, 0.0, 4, 5, 0), (-1, 0.0, 4, 4, 1), (-1, 0.0, 5, 5, 0)]

    def test_well_formed_trees_load_and_walk(self):
        model = RandomForest.from_arrays(*flat_forest(2, self.NODES, roots=(0, 3)))
        rows = [[0.0, 0.0], [1.0, 1.0], [1.0, -1.0], [0.5, 0.5]]
        assert model.predict_proba(np.array(rows)).tolist() == [0.5, 0.5, 1.0, 0.0]
        assert [nested_walk(model, row) for row in rows] == [0.5, 0.5, 1.0, 0.0]

    # ``edit`` sets column ``edit[1]`` of node ``edit[0]`` (feature,
    # threshold, left, right, vote) to ``edit[2]``.
    @pytest.mark.parametrize("edit,roots,message", [
        ((3, 3, 2), (0, 3), "node 3 has children 4 and 2"),  # a child before its parent
        ((3, 3, 3), (0, 3), "node 3 has children 4 and 3"),  # the node itself
        ((0, 3, 3), (0, 3), "node 0 has children 1 and 3"),  # the next tree's root
        ((3, 3, 6), (0, 3), "node 3 has children 4 and 6"),  # past every node
        ((0, 2, 2), (0, 3), "node 0 has children 2 and 2"),  # left not the next node
        ((1, 2, 2), (0, 3), "leaf 1 is not its own left and right child"),
        ((0, 0, 7), (0, 3), "feature 7 of a 2-feature model"),
        ((2, 4, 2), (0, 3), "votes other than 0 or 1"),
        (None, (1, 3), "roots do not start at node 0"),
        (None, (0, 0), "roots do not start at node 0 and increase"),
        (None, (0, 6), "increase within the nodes"),
    ], ids=["child-before-parent", "child-is-itself", "child-in-next-tree", "child-past-nodes",
            "left-not-next", "leaf-with-children", "feature-out-of-range", "vote-2",
            "first-root-not-0", "roots-repeat", "root-past-nodes"])
    def test_trees_a_walk_could_not_finish_are_rejected(self, edit, roots, message):
        nodes = [list(node) for node in self.NODES]
        if edit is not None:
            index, column, value = edit
            nodes[index][column] = value
        with pytest.raises(ValueError, match=message):
            RandomForest.from_arrays(*flat_forest(2, nodes, roots=roots))

    def test_node_arrays_of_different_lengths_are_rejected(self):
        scalars, arrays = flat_forest(2, self.NODES, roots=(0, 3))
        for name in ("feature", "threshold", "left", "right", "vote"):
            with pytest.raises(ValueError, match="node arrays differ in length"):
                RandomForest.from_arrays(scalars, {**arrays, name: arrays[name][:-1]})

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_accepted_forest_walks_to_the_nested_walk(self, data):
        n = data.draw(st.integers(1, 7))
        nodes = [(data.draw(st.integers(-2, 2)), data.draw(st.sampled_from([-0.5, 0.0, 0.5])),
                  data.draw(st.integers(-1, n)), data.draw(st.integers(-1, n)),
                  data.draw(st.integers(0, 2))) for _ in range(n)]
        roots = sorted(data.draw(st.sets(st.integers(0, n), min_size=1, max_size=3)))
        try:
            model = RandomForest.from_arrays(*flat_forest(2, nodes, roots=roots))
        except ValueError:
            return
        rows = [[data.draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0])) for _ in range(2)]
                for _ in range(3)]
        assert model.predict_proba(np.array(rows)).tolist() == [nested_walk(model, r) for r in rows]


# The argsort split search that the rank search replaced, kept verbatim
# as the oracle: every node sorted each drawn feature's column.


def reference_gini_best_split(x: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
    """Best (threshold, impurity) for one feature column, or None when the
    column cannot split the node."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    n = len(ys)
    boundaries = np.nonzero(xs[1:] > xs[:-1])[0]  # split between distinct values
    if len(boundaries) == 0:
        return None
    left_pos = np.cumsum(ys)[boundaries].astype(np.float64)
    left_n = (boundaries + 1).astype(np.float64)
    right_n = n - left_n
    total_pos = float(ys.sum())
    right_pos = total_pos - left_pos
    p_left = left_pos / left_n
    p_right = right_pos / right_n
    gini = (
        left_n * (2.0 * p_left * (1.0 - p_left))
        + right_n * (2.0 * p_right * (1.0 - p_right))
    ) / n
    best = int(np.argmin(gini))
    threshold = 0.5 * (xs[boundaries[best]] + xs[boundaries[best] + 1])
    return float(threshold), float(gini[best])


def reference_leaf(nodes: list[list], vote: int) -> int:
    index = len(nodes)
    nodes.append([-1, 0.0, index, index, vote])
    return index


def reference_grow(x, y, depth, max_depth, n_subset, rng, nodes) -> int:
    ones = int(y.sum())
    vote = 1 if 2 * ones > len(y) else 0
    if depth >= max_depth or ones == 0 or ones == len(y):
        return reference_leaf(nodes, vote)
    features = rng.choice(x.shape[1], size=n_subset, replace=False)
    best_feature = -1
    best_threshold = 0.0
    best_impurity = math.inf
    for f in sorted(int(v) for v in features):
        found = reference_gini_best_split(x[:, f], y)
        if found is None:
            continue
        threshold, impurity = found
        if impurity < best_impurity:
            best_impurity = impurity
            best_feature = f
            best_threshold = threshold
    if best_feature < 0:
        return reference_leaf(nodes, vote)
    index = len(nodes)
    nodes.append([best_feature, best_threshold, -1, -1, 0])
    mask = x[:, best_feature] <= best_threshold
    nodes[index][2] = reference_grow(x[mask], y[mask], depth + 1, max_depth, n_subset, rng, nodes)
    nodes[index][3] = reference_grow(x[~mask], y[~mask], depth + 1, max_depth, n_subset, rng, nodes)
    return index


def reference_fit(model: RandomForest, x, y) -> RandomForest:
    """``RandomForest.fit`` as it was, on ``model`` (validation aside:
    the oracle only sees inputs both accept)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    stds[stds == 0.0] = 1.0
    model.feature_means = [float(v) for v in means]
    model.feature_stds = [float(v) for v in stds]
    model.n_training_rows = len(y)
    scaled = (x - means) / stds
    n_subset = max(1, int(math.isqrt(x.shape[1])))
    rng = np.random.default_rng(model.seed)
    roots: list[int] = []
    nodes: list[list] = []
    for _ in range(model.n_trees):
        idx = rng.integers(0, len(y), size=len(y))
        roots.append(reference_grow(scaled[idx], y[idx], 0, model.max_depth, n_subset, rng, nodes))
    model._set_trees(roots, nodes)
    return model


_SUBNORMAL = 5e-324
_BASES = [0.0, -0.0, 1.0, -1.0, 0.1, 3.0, -2.5, 1e6, _SUBNORMAL, -_SUBNORMAL, 2.2250738585072014e-308]
# Each base with its float neighbours: ties, adjacent floats and signed
# zeros, before and after scaling.
_POOL = list({
    repr(v): v
    for b in _BASES
    for v in (b, float(np.nextafter(b, np.inf)), float(np.nextafter(b, -np.inf)))
}.values())


@st.composite
def training_sets(draw):
    n_rows = draw(st.integers(2, 80))
    n_cols = draw(st.integers(1, 14))
    columns = []
    for _ in range(n_cols):
        values = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=5, unique_by=repr))
        columns.append(draw(st.lists(st.sampled_from(values), min_size=n_rows, max_size=n_rows)))
    labels = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    labels[0], labels[-1] = 0, 1  # both classes
    return np.array(columns, dtype=np.float64).T.copy(), np.array(labels, dtype=np.int64)


class TestArgsortOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        data=training_sets(),
        n_trees=st.integers(1, 5),
        depth=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_search_grows_the_argsort_forest(self, data, n_trees, depth, seed):
        x, y = data
        model = RandomForest(n_trees=n_trees, max_depth=depth, seed=seed).fit(x, y)
        ref = reference_fit(RandomForest(n_trees=n_trees, max_depth=depth, seed=seed), x, y)
        assert dump(model) == dump(ref)
        for name in ("roots", "feature", "threshold", "left", "right", "vote"):
            got, want = getattr(model, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
        # Thresholds equal as bits, not only as floats (-0.0 == 0.0).
        assert model.threshold.tobytes() == ref.threshold.tobytes()

    def test_benchmark_sized_forest_matches(self):
        x, y = separable_data(n=600, seed=21)
        x[:, 5] = np.round(x[:, 5], 1)  # ties
        x[:, 9] = 0.25  # a constant column
        model = RandomForest(n_trees=8, max_depth=8, seed=3).fit(x, y)
        ref = reference_fit(RandomForest(n_trees=8, max_depth=8, seed=3), x, y)
        assert dump(model) == dump(ref)
