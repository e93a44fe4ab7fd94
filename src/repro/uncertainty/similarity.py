"""Similarity primitives over vectors and term bags.

These are the low-level metrics the matching engines build on.  All of
them return values in [0, 1] where 1 means identical, so scores from
different metrics can be ensembled and later calibrated to probabilities.

Dot products go through :func:`dot_kernel` / :func:`batch_dot_kernel`
(``np.einsum``), never BLAS: ``M @ v`` is *not* bitwise-identical to its
per-row dot products (BLAS picks different accumulation kernels for gemv
and dot), while einsum computes each output element with one fixed
reduction regardless of batch size.  That property is what lets the
batched matchers guarantee *exact* float parity with the pairwise path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np


def dot_kernel(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two 1-D vectors, bitwise-stable under batching.

    ``dot_kernel(M[i], v) == batch_dot_kernel(M, v)[i]`` exactly, which
    BLAS (``np.dot``/``@``) does not guarantee.
    """
    return float(np.einsum("j,j->", a, b))


def batch_dot_kernel(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Row-wise dot products of ``matrix`` against ``vector``.

    Each row's result is bitwise-identical to ``dot_kernel(row, vector)``.
    """
    if matrix.shape[0] == 0:
        return np.zeros(0)
    return np.einsum("ij,j->i", matrix, vector)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two vectors mapped to [0, 1] (0.5 = orthogonal)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float((1.0 + dot_kernel(a, b) / (na * nb)) / 2.0)


def nonnegative_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine for non-negative vectors (already in [0, 1])."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.clip(dot_kernel(a, b) / (na * nb), 0.0, 1.0))


def batch_nonnegative_cosine(
    matrix: np.ndarray,
    row_norms: np.ndarray,
    vector: np.ndarray,
    vector_norm: float,
) -> np.ndarray:
    """Vectorized :func:`nonnegative_cosine` of each matrix row vs ``vector``.

    ``row_norms`` must hold ``np.linalg.norm(row)`` per row and
    ``vector_norm`` must be ``np.linalg.norm(vector)`` — they are taken as
    arguments so callers can cache them.  Result element ``i`` is bitwise
    equal to ``nonnegative_cosine(matrix[i], vector)``.
    """
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0)
    if vector_norm == 0:
        return np.zeros(n)
    dots = batch_dot_kernel(matrix, vector)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = np.clip(dots / (row_norms * vector_norm), 0.0, 1.0)
    return np.where(row_norms == 0, 0.0, cosines)


def jaccard_similarity(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard index of two term sets."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    return len(set_a & set_b) / len(union)


def weighted_jaccard(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Weighted Jaccard (Ruzicka) similarity of two weighted bags.

    Accumulates in sorted key order so the result is bitwise identical
    across processes regardless of string-hash randomization (see
    :func:`bag_cosine`).
    """
    keys = sorted(set(a) | set(b))
    if not keys:
        return 1.0
    minimum = sum(min(a.get(k, 0.0), b.get(k, 0.0)) for k in keys)
    maximum = sum(max(a.get(k, 0.0), b.get(k, 0.0)) for k in keys)
    if maximum == 0:
        return 1.0
    return minimum / maximum


def sublinear_tf(terms: Mapping[str, int]) -> Dict[str, float]:
    """Sublinear (1 + log) term-frequency weighting."""
    return {
        term: 1.0 + float(np.log(count)) if count > 0 else 0.0
        for term, count in terms.items()
        if count > 0
    }


def bag_cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Cosine similarity of two sparse weighted bags, in [0, 1].

    The dot product accumulates over the shared keys in *sorted* order:
    set iteration order follows per-process string-hash randomization
    (``PYTHONHASHSEED``), and float addition is not associative, so an
    unsorted reduction can differ in the last ulp between two runs of the
    same seed.  A canonical order makes the score a pure function of the
    bags, byte-for-byte, in every process.
    """
    if not a or not b:
        return 0.0
    shared = sorted(set(a) & set(b))
    dot = sum(a[k] * b[k] for k in shared)
    norm_a = bag_norm(a)
    norm_b = bag_norm(b)
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return float(np.clip(dot / (norm_a * norm_b), 0.0, 1.0))


def bag_norm(bag: Mapping[str, float]) -> float:
    """Euclidean norm of a sparse weighted bag (cacheable per item)."""
    return float(np.sqrt(sum(v * v for v in bag.values())))


def batch_bag_cosine(
    query_bag: Mapping[str, float],
    candidate_bags: Sequence[Mapping[str, float]],
    candidate_norms: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """:func:`bag_cosine` of ``query_bag`` against many candidate bags.

    The query-side norm is computed once instead of once per pair;
    ``candidate_norms`` (``bag_norm`` per bag) may be passed to reuse
    cached values.  Element ``i`` is bitwise equal to
    ``bag_cosine(query_bag, candidate_bags[i])`` — including the sorted
    shared-key reduction order that keeps scores hash-seed-independent
    across processes: the query's keys are sorted once, and filtering them
    by membership in each bag visits the shared keys in that same order.
    """
    n = len(candidate_bags)
    scores = np.zeros(n)
    if n == 0 or not query_bag:
        return scores
    query_norm = bag_norm(query_bag)
    if query_norm == 0:
        return scores
    query_terms = sorted(query_bag.items())
    norms: Sequence[float] = (
        candidate_norms
        if candidate_norms is not None
        else [bag_norm(bag) for bag in candidate_bags]
    )
    for i, bag in enumerate(candidate_bags):
        if not bag or norms[i] == 0:
            continue
        dot = sum(weight * bag[k] for k, weight in query_terms if k in bag)
        score = dot / (query_norm * norms[i])
        # np.clip without the scalar round trip (NaN passes through too)
        if score > 1.0:
            score = 1.0
        elif score < 0.0:
            score = 0.0
        scores[i] = score
    return scores


class EnsembleSimilarity:
    """A weighted combination of several score functions.

    Each member is a callable ``(query, candidate) -> float`` in [0, 1].
    """

    def __init__(self, members: Sequence, weights: Optional[Sequence[float]] = None):
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = list(members)
        if weights is None:
            weights = [1.0] * len(members)
        if len(weights) != len(members):
            raise ValueError("weights must match members")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = sum(weights)
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        self.weights = [w / total for w in weights]

    def __call__(self, query, candidate) -> float:
        return sum(
            weight * member(query, candidate)
            for member, weight in zip(self.members, self.weights)
        )
