"""Bag-kernel scores must not depend on the interpreter's hash seed.

``bag_cosine`` and ``batch_bag_cosine`` reduce a dot product over the
keys two bags share, ``weighted_jaccard`` sums over their union.  Those
keys come out of a ``set`` of strings, whose iteration order follows
``PYTHONHASHSEED``; float addition is not associative, so an unsorted
reduction can change the last ulp of a score between two runs of the
same seed.  The kernels sum in sorted key order.
This test runs the kernels, and a text-heavy ``rank_block`` on top of
them, in two interpreters with different hash seeds and compares every
score bit for bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Runs in a fresh interpreter; prints every score as ``float.hex()``.
PROBE = r"""
import json

import numpy as np

from repro.data.corpus import CorpusGenerator, DomainSpec
from repro.data.features import FeatureExtractor
from repro.data.topics import TopicSpace
from repro.data.vocabulary import Vocabulary
from repro.sim.rng import RngStreams
from repro.uncertainty import bag_cosine, batch_bag_cosine, weighted_jaccard
from repro.uncertainty.matching import build_matching_engine

rng = np.random.default_rng(5)
terms = [f"term{index}" for index in range(400)]


def bag():
    keys = rng.choice(len(terms), size=240, replace=False)
    return {terms[key]: float(rng.random() * 10.0 ** rng.integers(-3, 4)) for key in keys}


query = bag()
candidates = [bag() for __ in range(30)]
pairs = [bag_cosine(query, candidate).hex() for candidate in candidates]
batch = [float(score).hex() for score in batch_bag_cosine(query, candidates)]
jaccard = [weighted_jaccard(query, candidate).hex() for candidate in candidates]

streams = RngStreams(seed=1234).spawn("hash-order")
topic_space = TopicSpace(n_topics=10)
vocabulary = Vocabulary(
    topic_space, streams.spawn("vocab"), vocabulary_size=500, terms_per_topic=60
)
corpus = CorpusGenerator(
    topic_space, vocabulary, streams.spawn("corpus"), feature_dimensions=16
)
sample = corpus.generate(
    DomainSpec("lifter-sample", {"folk-jewelry": 0.5, "dance-forms": 0.5},
               type_mix={"text": 0.0, "media": 1.0, "compound": 0.0}),
    20,
)
engine = build_matching_engine(
    vocabulary, FeatureExtractor(16, streams.spawn("extract")), lifter_sample=sample
)
texts = corpus.generate(
    DomainSpec("library", {"folk-jewelry": 0.6, "dance-forms": 0.4},
               type_mix={"text": 1.0, "media": 0.0, "compound": 0.0}),
    60,
)
ranked = [
    [item.item_id, score.hex()]
    for item, score in engine.rank_block(texts[0], engine.prepare(texts[1:]))
]
print(json.dumps({
    "bag_cosine": pairs, "batch_bag_cosine": batch,
    "weighted_jaccard": jaccard, "rank_block": ranked,
}))
"""


def run_probe(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        check=True, env=env, capture_output=True, text=True, timeout=120,
    )
    return json.loads(completed.stdout)


def test_bag_kernels_are_bitwise_independent_of_hash_seed():
    first, second = run_probe("1"), run_probe("2")
    assert len(first["rank_block"]) == 59
    for kernel in ("bag_cosine", "batch_bag_cosine", "weighted_jaccard", "rank_block"):
        assert first[kernel] == second[kernel], f"{kernel} differs across hash seeds"
