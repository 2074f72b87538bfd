"""Bagged decision-tree ensemble for the sentence-pair filter.

Each tree trains on a bootstrap sample; every split searches a random
feature subset (sqrt of the feature count) for the Gini-optimal
threshold.  All randomness flows from one seeded generator drawn
sequentially, so a fixed seed gives a bit-identical model and
predictions.  The prediction is the fraction of trees voting 1.
Training values must be finite.  A forest has at least one tree, and
a depth of at least 1: at depth 0 every tree is one leaf, so every row
gets the same score.

The split search never sorts at a node.  ``fit`` ranks each scaled
column once, against its distinct values (presorting, as in SLIQ), and
a node holds only the ids of its training rows, bootstrap repeats
included.  For a drawn feature, the node counts its rows and its
positives at each rank with ``np.bincount``: a histogram with one bin
per distinct value, as in LightGBM's split finding, so nothing is lost
to binning.  A split falls in each gap between two ranks the node
holds; the row and positive counts left of it are cumulative sums, the
Gini impurity is computed from them, and the threshold is the midpoint
of the two values beside the best gap.  This grows the trees a sort of
the node's column would: a gap's counts are sums over whole groups of
equal values, which are exact integers in any order, and the impurity,
its argmin and the midpoint are the same float expressions on the same
numbers.  (-0.0 and 0.0 share a rank; a midpoint's other value is
nonzero, so either zero gives the same sum.)  Rows are sent left by
``value <= threshold``, not by rank, because the midpoint of two
adjacent floats can round up to the upper one, which then goes left too.

The trees are held as flat arrays, node by node in pre-order and one
tree after another; ``roots`` holds each tree's first node.  Node i
splits on column ``feature[i]`` at ``threshold[i]``: a row goes to
``left[i]`` (always ``i + 1``) when its value is ``<=`` the threshold
and to ``right[i]`` otherwise.  A leaf has ``feature[i] == -1``, votes
``vote[i]`` (0 or 1) and is its own left and right child.
``predict_proba`` walks the rows of a batch down every tree together,
one tree level per numpy step and at most ``BLOCK_ROWS`` rows at a time,
so a site's candidates are scored in one call, the way Bicleaner
batches its tree classifier.  A row's score does not depend on the
batch around it: scaling is the element-wise ``(x - mean) / std``, and
each vote is 0 or 1, so the vote sum is an integer far below 2**53 and
exact in any order of summation.

On disk (filter model version 3, ``modelfile``) the forest is its
settings, feature means and stds, and the six arrays as they are held,
read straight into them.  ``from_arrays`` checks that every walk ends:
the roots start at 0 and increase; an internal node ``i`` has ``left ==
i + 1``, a ``right`` past ``i + 1`` and inside its tree, and a feature
in ``[0, n_features)``; and a leaf has ``left == right == i``.  Every
step of a walk so moves to a larger node of the same tree until it
stands on a leaf.  Those, no trees, arrays of different lengths, a vote
other than 0 or 1, or feature means and stds of different lengths, is
a ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modelfile import Arrays, Section, array

DEFAULT_TREES = 100
DEFAULT_DEPTH = 8
# Rows per walk in ``predict_proba``: at the default 100 trees, each of
# the walk's index arrays stays at 50 kB.
BLOCK_ROWS = 64


@dataclass
class _Columns:
    """A fit's scaled training matrix with, per column, its distinct
    values in ascending order and each row's rank among them, so that
    ``values[f][ranks[f][i]] == scaled[i, f]``."""

    scaled: np.ndarray
    y: np.ndarray
    values: list[np.ndarray]
    ranks: list[np.ndarray]

    @classmethod
    def of(cls, scaled: np.ndarray, y: np.ndarray) -> "_Columns":
        columns = [np.unique(col, return_inverse=True) for col in scaled.T]
        return cls(scaled, y, [values for values, _ in columns], [ranks for _, ranks in columns])


def _leaf(nodes: list[list], vote: int) -> int:
    """Append a leaf to ``nodes``, the [feature, threshold, left, right,
    vote] rows of a forest being built, and return its index."""
    index = len(nodes)
    nodes.append([-1, 0.0, index, index, vote])
    return index


def _grow(
    rows: np.ndarray,
    data: _Columns,
    depth: int,
    max_depth: int,
    n_subset: int,
    rng: np.random.Generator,
    nodes: list[list],
) -> int:
    """Append the tree grown on the training rows ``rows`` (row ids,
    repeats included) to ``nodes`` in pre-order and return the index of
    its root."""
    y = data.y[rows]
    n = len(y)
    ones = int(y.sum())
    vote = 1 if 2 * ones > n else 0
    if depth >= max_depth or ones == 0 or ones == n:
        return _leaf(nodes, vote)
    features = rng.choice(data.scaled.shape[1], size=n_subset, replace=False)
    weights = y.astype(np.float64)
    total_pos = float(ones)
    best_feature = -1
    best_threshold = 0.0
    best_impurity = math.inf
    for f in sorted(features.tolist()):
        # Rows and positives per distinct value of the column, in value
        # order; a split falls in each gap between values the node holds.
        ranks = data.ranks[f][rows]
        n_at = np.bincount(ranks)
        (present,) = n_at.nonzero()
        if len(present) < 2:
            continue
        pos_at = np.bincount(ranks, weights=weights, minlength=len(n_at))
        left_n = n_at[present[:-1]].cumsum().astype(np.float64)
        left_pos = pos_at[present[:-1]].cumsum()
        right_n = n - left_n
        right_pos = total_pos - left_pos
        p_left = left_pos / left_n
        p_right = right_pos / right_n
        gini = (
            left_n * (2.0 * p_left * (1.0 - p_left))
            + right_n * (2.0 * p_right * (1.0 - p_right))
        ) / n
        best = int(gini.argmin())
        if gini[best] < best_impurity:
            values = data.values[f]
            best_impurity = float(gini[best])
            best_feature = f
            best_threshold = float(0.5 * (values[present[best]] + values[present[best + 1]]))
    if best_feature < 0:
        return _leaf(nodes, vote)
    index = len(nodes)
    nodes.append([best_feature, best_threshold, -1, -1, 0])
    # Split on the values, not the ranks: the midpoint of two adjacent
    # floats can round up to the upper one, which then goes left too.
    mask = data.scaled[rows, best_feature] <= best_threshold
    nodes[index][2] = _grow(rows[mask], data, depth + 1, max_depth, n_subset, rng, nodes)
    nodes[index][3] = _grow(rows[~mask], data, depth + 1, max_depth, n_subset, rng, nodes)
    return index


@dataclass(eq=False)
class RandomForest:
    n_trees: int = DEFAULT_TREES
    max_depth: int = DEFAULT_DEPTH
    seed: int = 0
    feature_means: list[float] = field(default_factory=list)
    feature_stds: list[float] = field(default_factory=list)
    n_training_rows: int = 0
    # The flat trees (see the module docstring); ``roots`` holds the
    # index of each tree's root.  Empty until ``fit`` or ``from_arrays``.
    roots: np.ndarray = field(init=False, repr=False)
    feature: np.ndarray = field(init=False, repr=False)
    threshold: np.ndarray = field(init=False, repr=False)
    left: np.ndarray = field(init=False, repr=False)
    right: np.ndarray = field(init=False, repr=False)
    vote: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"a forest needs at least one tree, not {self.n_trees}")
        if self.max_depth < 1:
            raise ValueError(f"a tree needs a depth of at least 1, not {self.max_depth}")
        self._set_trees([], [])

    def _set_trees(self, roots: list[int], nodes: list[list]) -> None:
        self.roots = np.array(roots, dtype="<i8")
        feature, threshold, left, right, vote = zip(*nodes) if nodes else ((),) * 5
        self.feature = np.array(feature, dtype="<i8")
        self.threshold = np.array(threshold, dtype="<f8")
        self.left = np.array(left, dtype="<i8")
        self.right = np.array(right, dtype="<i8")
        self.vote = np.array(vote, dtype="|u1")

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        classes = set(int(v) for v in np.unique(y))
        if classes - {0, 1}:
            raise ValueError("labels must be 0/1")
        if len(classes) < 2:
            raise ValueError("both classes must be present")
        if not np.isfinite(x).all():
            raise ValueError("feature values must be finite")
        means = x.mean(axis=0)
        stds = x.std(axis=0)
        stds[stds == 0.0] = 1.0
        scaled = (x - means) / stds
        if not (np.isfinite(stds).all() and np.isfinite(scaled).all()):
            raise ValueError("feature values overflow when scaled")
        self.feature_means = [float(v) for v in means]
        self.feature_stds = [float(v) for v in stds]
        self.n_training_rows = len(y)
        data = _Columns.of(scaled, y)
        n_subset = max(1, int(math.isqrt(x.shape[1])))
        rng = np.random.default_rng(self.seed)
        roots: list[int] = []
        nodes: list[list] = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, len(y), size=len(y))
            roots.append(_grow(idx, data, 0, self.max_depth, n_subset, rng, nodes))
        self._set_trees(roots, nodes)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Fraction of trees voting 1, per row of the (rows, features)
        matrix ``x``; an empty batch gives an empty array.  Rows are
        walked ``BLOCK_ROWS`` at a time, which bounds the walkers'
        arrays and changes no score."""
        if not len(self.roots):
            raise ValueError("model is not trained")
        x = np.asarray(x, dtype=np.float64)
        if len(x) == 0:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(
            [self._walk(x[start : start + BLOCK_ROWS]) for start in range(0, len(x), BLOCK_ROWS)]
        )

    def _walk(self, x: np.ndarray) -> np.ndarray:
        scaled = ((x - np.array(self.feature_means)) / np.array(self.feature_stds)).ravel()
        n_rows, n_trees, n_nodes = len(x), len(self.roots), len(self.feature)
        # One walker per (row, tree), row by row: ``node`` is where it
        # stands and ``cell`` where its row starts in ``scaled``.
        node = np.tile(self.roots, n_rows)
        cell = np.repeat(np.arange(n_rows) * x.shape[1], n_trees)
        children = np.concatenate([self.right, self.left])
        while True:
            feature = np.take(self.feature, node)
            if (feature < 0).all():
                break
            # A leaf reads some cell through its -1, but both of its
            # children are itself.
            goes_left = np.take(scaled, cell + feature) <= np.take(self.threshold, node)
            node = np.take(children, node + n_nodes * goes_left)
        return np.take(self.vote, node).reshape(n_rows, n_trees).sum(axis=1) / n_trees

    def to_arrays(self) -> Section:
        """Settings, feature means and stds, and the flat trees."""
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "seed": self.seed,
            "feature_means": self.feature_means,
            "feature_stds": self.feature_stds,
            "n_training_rows": self.n_training_rows,
        }, {name: getattr(self, name) for name, _ in _ARRAYS}

    @classmethod
    def from_arrays(cls, scalars: dict, arrays: Arrays) -> "RandomForest":
        """Read ``to_arrays`` output; see the module docstring."""
        model = cls(
            n_trees=int(scalars["n_trees"]),
            max_depth=int(scalars["max_depth"]),
            seed=int(scalars["seed"]),
        )
        model.feature_means = [float(v) for v in scalars["feature_means"]]
        model.feature_stds = [float(v) for v in scalars["feature_stds"]]
        n_features = len(model.feature_means)
        if len(model.feature_stds) != n_features:
            raise ValueError(
                f"{n_features} feature means but {len(model.feature_stds)} feature stds"
            )
        model.n_training_rows = int(scalars.get("n_training_rows", 0))
        for name, dtype in _ARRAYS:
            setattr(model, name, array(arrays, name, dtype))
        _check_trees(model, n_features)
        return model


# The forest's arrays on disk and in memory, in file order.
_ARRAYS = (("roots", "<i8"), ("feature", "<i8"), ("threshold", "<f8"), ("left", "<i8"),
           ("right", "<i8"), ("vote", "|u1"))


def _check_trees(model: RandomForest, n_features: int) -> None:
    """A ``ValueError`` unless ``model``'s arrays hold trees every walk
    ends in; see the module docstring."""
    roots, feature, left, right = model.roots, model.feature, model.left, model.right
    n = len(feature)
    if not len(roots):
        raise ValueError("forest has no trees")
    lengths = {name: len(getattr(model, name)) for name, _ in _ARRAYS[1:]}
    if set(lengths.values()) != {n}:
        raise ValueError(f"the forest's node arrays differ in length: {lengths}")
    if roots[0] != 0 or (roots[1:] <= roots[:-1]).any() or roots[-1] >= n:
        raise ValueError("tree roots do not start at node 0 and increase within the nodes")
    node = np.arange(n)
    tree_end = np.r_[roots[1:], n][np.repeat(np.arange(len(roots)), np.diff(np.r_[roots, n]))]
    leaf = feature == -1
    bad = np.flatnonzero(~leaf & ((feature < 0) | (feature >= n_features)))
    if len(bad):
        raise ValueError(f"node {bad[0]} splits on feature {feature[bad[0]]} "
                         f"of a {n_features}-feature model")
    bad = np.flatnonzero(leaf & ((left != node) | (right != node)))
    if len(bad):
        raise ValueError(f"leaf {bad[0]} is not its own left and right child")
    bad = np.flatnonzero(~leaf & ((left != node + 1) | (right <= node + 1) | (right >= tree_end)))
    if len(bad):
        raise ValueError(f"node {bad[0]} has children {left[bad[0]]} and {right[bad[0]]}, "
                         f"not {bad[0] + 1} and a later node of its tree")
    if (model.vote > 1).any():
        raise ValueError("a node votes other than 0 or 1")
