"""Latent topic space underlying all synthetic information objects.

The paper's Open Agora trades heterogeneous objects — images of jewels,
auction catalogs, magazine articles — whose *meaning* must be comparable
across types.  We model meaning as a shared latent topic space: every item,
query and user interest is a point on the probability simplex over
``n_topics`` topics.  Ground-truth relevance between any two entities is a
function of their latent vectors, which gives experiments an oracle to
score against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

DEFAULT_TOPIC_NAMES = [
    "folk-jewelry",
    "traditional-costume",
    "dance-forms",
    "museum-exhibitions",
    "auction-market",
    "fashion-trends",
    "regional-history",
    "tourism",
    "craft-techniques",
    "academic-theses",
]


class TopicSpace:
    """A fixed latent topic space shared by the whole agora.

    Parameters
    ----------
    n_topics:
        Dimensionality of the simplex.
    names:
        Optional human-readable topic names; generated when omitted.
    """

    def __init__(self, n_topics: int = 10, names: Optional[Sequence[str]] = None):
        if n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        self.n_topics = n_topics
        if names is None:
            base = DEFAULT_TOPIC_NAMES
            names = [
                base[i] if i < len(base) else f"topic-{i}" for i in range(n_topics)
            ]
        if len(names) != n_topics:
            raise ValueError("names length must equal n_topics")
        self.names: List[str] = list(names)

    # ------------------------------------------------------------------
    def validate(self, vector: np.ndarray) -> np.ndarray:
        """Check that ``vector`` is a valid point of this space."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.n_topics,):
            raise ValueError(
                f"expected shape ({self.n_topics},), got {vector.shape}"
            )
        if np.any(vector < -1e-12):
            raise ValueError("topic vector has negative components")
        return np.clip(vector, 0.0, None)

    def normalize(self, vector: np.ndarray) -> np.ndarray:
        """Project ``vector`` onto the simplex (L1-normalise, clip at 0)."""
        vector = self.validate(vector)
        total = vector.sum()
        if total <= 0:
            return np.full(self.n_topics, 1.0 / self.n_topics)
        return vector / total

    def sample(
        self,
        rng: np.random.Generator,
        concentration: float = 0.3,
        prior: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw a topic vector from a Dirichlet distribution.

        ``concentration`` < 1 yields peaked (specialised) vectors;
        larger values yield diffuse ones.  ``prior`` biases the draw
        towards a given mixture.
        """
        if prior is None:
            alpha = np.full(self.n_topics, concentration)
        else:
            prior = self.normalize(prior)
            alpha = concentration * self.n_topics * prior + 1e-3
        return rng.dirichlet(alpha)

    def relevance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Ground-truth relevance between two latent vectors in [0, 1].

        Cosine similarity of simplex points; both arguments are validated.
        """
        a = self.validate(a)
        b = self.validate(b)
        na = np.linalg.norm(a)
        nb = np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.0
        return float(np.dot(a, b) / (na * nb))

    def relevance_many(
        self, a: np.ndarray, rows: Sequence[np.ndarray]
    ) -> np.ndarray:
        """:meth:`relevance` of ``a`` against each of ``rows``, in one pass.

        Validation is :meth:`validate` applied to every vector, and an
        invalid input raises the error that validating ``a`` and then each
        row in order would raise first.  The arithmetic is einsum, not BLAS,
        so an element may differ from the scalar :meth:`relevance` in the
        last few ulps; callers that need the scalar's exact answer near a
        cutoff must re-decide those rows with :meth:`relevance`.
        """
        a = self.validate(a)
        shape = (len(rows), self.n_topics)
        try:
            matrix = np.array(rows, dtype=float)
        except ValueError:  # ragged rows
            matrix = np.zeros(0)
        if matrix.shape != shape or np.any(matrix < -1e-12):
            # row by row, so the first invalid row raises its own error
            matrix = np.array([self.validate(row) for row in rows]).reshape(shape)
        matrix = np.clip(matrix, 0.0, None)
        na = np.linalg.norm(a)
        if na == 0:
            return np.zeros(len(rows))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
            scores = np.einsum("ij,j->i", matrix, a) / (norms * na)
        return np.where(norms == 0, 0.0, scores)

    def peak_topic(self, vector: np.ndarray) -> str:
        """Name of the dominant topic of ``vector``."""
        vector = self.validate(vector)
        return self.names[int(np.argmax(vector))]

    def basis(self, topic: str, weight: float = 1.0) -> np.ndarray:
        """Return a vector concentrated on ``topic``.

        The remaining mass (``1 - weight``) is spread uniformly.
        """
        if topic not in self.names:
            raise KeyError(f"unknown topic {topic!r}")
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight must be in [0, 1]")
        index = self.names.index(topic)
        vector = np.full(self.n_topics, (1.0 - weight) / self.n_topics)
        vector[index] += weight
        return vector / vector.sum()

    def __repr__(self) -> str:
        return f"TopicSpace(n_topics={self.n_topics})"
