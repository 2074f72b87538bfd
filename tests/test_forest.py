import hashlib
import json

import numpy as np
import pytest

from localmine.forest import RandomForest


def separable_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 12))
    y = (x[:, 3] + 0.5 * x[:, 7] > 0).astype(np.int64)
    return x, y


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

    def test_score_one_equals_predict_proba_exactly(self):
        x, y = separable_data(n=300, seed=12)
        model = RandomForest(n_trees=30, max_depth=6, seed=13).fit(x, y)
        rng = np.random.default_rng(14)
        probe = np.vstack([x[:50], rng.normal(scale=2.0, size=(200, 12))])
        for row in probe:
            assert model.score_one(row) == model.predict_proba(row[None])[0]
            assert model.score_one(row.tolist()) == model.predict_proba(row[None])[0]

    def test_score_one_untrained_is_error(self):
        with pytest.raises(ValueError):
            RandomForest(seed=0).score_one([0.0] * 12)
