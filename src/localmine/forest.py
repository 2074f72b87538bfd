"""Bagged decision-tree ensemble for the sentence-pair filter.

Each tree trains on a bootstrap sample; every split searches a random
feature subset (sqrt of the feature count) for the Gini-optimal
threshold.  All randomness flows from one seeded generator drawn
sequentially, so a fixed seed gives a bit-identical model and
predictions.  The prediction is the fraction of trees voting 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TREES = 100
DEFAULT_DEPTH = 8


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    vote: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"vote": self.vote}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "_Node":
        if "vote" in obj:
            return cls(vote=int(obj["vote"]))
        return cls(
            feature=int(obj["feature"]),
            threshold=float(obj["threshold"]),
            left=cls.from_json(obj["left"]),
            right=cls.from_json(obj["right"]),
        )


def _gini_best_split(x: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
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


def _grow(
    x: np.ndarray,
    y: np.ndarray,
    depth: int,
    max_depth: int,
    n_subset: int,
    rng: np.random.Generator,
) -> _Node:
    ones = int(y.sum())
    vote = 1 if 2 * ones > len(y) else 0
    if depth >= max_depth or ones == 0 or ones == len(y):
        return _Node(vote=vote)
    features = rng.choice(x.shape[1], size=n_subset, replace=False)
    best_feature = -1
    best_threshold = 0.0
    best_impurity = math.inf
    for f in sorted(int(v) for v in features):
        found = _gini_best_split(x[:, f], y)
        if found is None:
            continue
        threshold, impurity = found
        if impurity < best_impurity:
            best_impurity = impurity
            best_feature = f
            best_threshold = threshold
    if best_feature < 0:
        return _Node(vote=vote)
    mask = x[:, best_feature] <= best_threshold
    return _Node(
        feature=best_feature,
        threshold=best_threshold,
        left=_grow(x[mask], y[mask], depth + 1, max_depth, n_subset, rng),
        right=_grow(x[~mask], y[~mask], depth + 1, max_depth, n_subset, rng),
    )


def _traverse(node: _Node, row) -> int:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.vote


@dataclass
class RandomForest:
    n_trees: int = DEFAULT_TREES
    max_depth: int = DEFAULT_DEPTH
    seed: int = 0
    trees: list[_Node] = field(default_factory=list)
    feature_means: list[float] = field(default_factory=list)
    feature_stds: list[float] = field(default_factory=list)
    n_training_rows: int = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        classes = set(int(v) for v in np.unique(y))
        if classes - {0, 1}:
            raise ValueError("labels must be 0/1")
        if len(classes) < 2:
            raise ValueError("both classes must be present")
        means = x.mean(axis=0)
        stds = x.std(axis=0)
        stds[stds == 0.0] = 1.0
        self.feature_means = [float(v) for v in means]
        self.feature_stds = [float(v) for v in stds]
        self.n_training_rows = len(y)
        scaled = (x - means) / stds
        n_subset = max(1, int(math.isqrt(x.shape[1])))
        rng = np.random.default_rng(self.seed)
        self.trees = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, len(y), size=len(y))
            self.trees.append(_grow(scaled[idx], y[idx], 0, self.max_depth, n_subset, rng))
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Fraction of trees voting 1, per row."""
        if not self.trees:
            raise ValueError("model is not trained")
        x = np.asarray(x, dtype=np.float64)
        scaled = (x - np.array(self.feature_means)) / np.array(self.feature_stds)
        votes = np.zeros(len(scaled), dtype=np.float64)
        for tree in self.trees:
            votes += np.fromiter(
                (_traverse(tree, row) for row in scaled), dtype=np.float64, count=len(scaled)
            )
        return votes / len(self.trees)

    def score_one(self, row) -> float:
        """``predict_proba`` of one row, walked in plain Python: the same
        float operations in the same order, so the same score."""
        if not self.trees:
            raise ValueError("model is not trained")
        scaled = [
            (float(v) - mean) / std
            for v, mean, std in zip(row, self.feature_means, self.feature_stds)
        ]
        votes = 0.0
        for tree in self.trees:
            votes += _traverse(tree, scaled)
        return votes / len(self.trees)

    def to_json(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "seed": self.seed,
            "feature_means": self.feature_means,
            "feature_stds": self.feature_stds,
            "n_training_rows": self.n_training_rows,
            "trees": [tree.to_json() for tree in self.trees],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RandomForest":
        model = cls(
            n_trees=int(obj["n_trees"]),
            max_depth=int(obj["max_depth"]),
            seed=int(obj["seed"]),
        )
        model.feature_means = [float(v) for v in obj["feature_means"]]
        model.feature_stds = [float(v) for v in obj["feature_stds"]]
        model.n_training_rows = int(obj.get("n_training_rows", 0))
        model.trees = [_Node.from_json(t) for t in obj["trees"]]
        return model
