import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.forest import BLOCK_ROWS, RandomForest


def separable_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 12))
    y = (x[:, 3] + 0.5 * x[:, 7] > 0).astype(np.int64)
    return x, y


def nested_walk(model, row):
    """Oracle: one row scaled in plain Python floats and walked down each
    nested tree of ``to_json``, ``<=`` going left, votes summed in tree
    order."""
    obj = model.to_json()
    scaled = [
        (float(v) - mean) / std
        for v, mean, std in zip(row, obj["feature_means"], obj["feature_stds"])
    ]
    votes = 0.0
    for node in obj["trees"]:
        while "vote" not in node:
            node = node["left"] if scaled[node["feature"]] <= node["threshold"] else node["right"]
        votes += node["vote"]
    return votes / len(obj["trees"])


def thresholds(model):
    """Every (feature, threshold) split of the model's nested trees."""
    found = []
    stack = list(model.to_json()["trees"])
    while stack:
        node = stack.pop()
        if "vote" not in node:
            found.append((node["feature"], node["threshold"]))
            stack.extend((node["left"], node["right"]))
    return found


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
            payload = json.dumps(model.to_json(), sort_keys=True).encode()
            digests.add(hashlib.sha256(payload).hexdigest())
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
        again = RandomForest.from_json(json.loads(json.dumps(model.to_json())))
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
            obj = model.to_json()
            obj["feature_means"] = [0.0] * 12
            obj["feature_stds"] = [1.0] * 12
            model = RandomForest.from_json(obj)
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
        obj = {
            "n_trees": 1, "max_depth": 1, "seed": 0,
            "feature_means": [0.0, 0.0, 0.0], "feature_stds": [1.0, 1.0, 1.0],
            "trees": [{"feature": 2, "threshold": 0.5, "left": {"vote": 0}, "right": {"vote": 1}}],
        }
        RandomForest.from_json(obj)
        for feature in (3, -1):
            obj["trees"][0]["feature"] = feature
            with pytest.raises(ValueError, match=f"feature {feature} of a 3-feature"):
                RandomForest.from_json(obj)

    def test_from_json_rejects_unequal_means_and_stds(self):
        x, y = separable_data(n=100, seed=3)
        obj = RandomForest(n_trees=2, max_depth=2, seed=0).fit(x, y).to_json()
        for short in ("feature_means", "feature_stds"):
            with pytest.raises(ValueError, match="feature means but"):
                RandomForest.from_json({**obj, short: obj[short][:-1]})

    def test_untrained_is_error(self):
        with pytest.raises(ValueError):
            RandomForest(seed=0).predict_proba(np.zeros((1, 12)))
        with pytest.raises(ValueError):
            RandomForest(seed=0).predict_proba(np.zeros((0, 12)))
