"""Tests for the relevance oracle."""

import numpy as np
import pytest

from repro.data import InformationItem
from repro.query import Query, QueryKind, RelevanceOracle

from tests.conftest import make_topic_query


def _item(latent, created_at=0.0, item_id="i"):
    return InformationItem(
        item_id=item_id, domain="museum", latent=np.asarray(latent, float),
        created_at=created_at,
    )


class TestRelevance:
    def test_identical_latent_fully_relevant(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        item = _item(query.intent_latent)
        assert oracle.relevance(query, item) == pytest.approx(1.0)
        assert oracle.is_relevant(query, item)

    def test_orthogonal_not_relevant(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        other = topic_space.basis("tourism", weight=1.0)
        assert not oracle.is_relevant(query, _item(other))

    def test_query_without_intent_uses_reference(self, oracle, topic_space):
        reference = _item(topic_space.basis("tourism"), item_id="ref")
        query = Query(kind=QueryKind.SIMILARITY, reference_item=reference)
        assert oracle.relevance(query, _item(topic_space.basis("tourism"))) > 0.9

    def test_query_without_any_intent_raises(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        query.intent_latent = None
        query.reference_item = None
        with pytest.raises(ValueError):
            oracle.relevance(query, _item(topic_space.basis("tourism")))


class TestFreshness:
    def test_new_item_fully_fresh(self, oracle):
        assert oracle.freshness(_item([1.0] + [0.0] * 9, created_at=10.0), now=10.0) == 1.0

    def test_half_life(self, oracle):
        item = _item([1.0] + [0.0] * 9, created_at=0.0)
        assert oracle.freshness(item, now=oracle.freshness_half_life) == pytest.approx(0.5)


class TestDeliveredQoS:
    def test_perfect_delivery(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=2)
        relevant = [_item(query.intent_latent, item_id=f"r{i}") for i in range(2)]
        delivered = oracle.delivered_qos(
            query, returned=relevant, reachable=relevant,
            response_time=1.0, now=0.0, source_trust=0.8,
        )
        assert delivered.completeness == 1.0
        assert delivered.correctness == 1.0
        assert delivered.trust == 0.8

    def test_incomplete_delivery(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=10)
        relevant = [_item(query.intent_latent, item_id=f"r{i}") for i in range(4)]
        delivered = oracle.delivered_qos(
            query, returned=relevant[:1], reachable=relevant,
            response_time=1.0, now=0.0,
        )
        assert delivered.completeness == pytest.approx(0.25)

    def test_wrong_items_hurt_correctness(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=10)
        relevant = _item(query.intent_latent, item_id="good")
        junk = _item(topic_space.basis("tourism", 1.0), item_id="bad")
        delivered = oracle.delivered_qos(
            query, returned=[relevant, junk], reachable=[relevant, junk],
            response_time=1.0, now=0.0,
        )
        assert delivered.correctness == pytest.approx(0.5)

    def test_empty_delivery(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        relevant = [_item(query.intent_latent)]
        delivered = oracle.delivered_qos(
            query, returned=[], reachable=relevant, response_time=1.0, now=0.0,
        )
        assert delivered.completeness == 0.0
        assert delivered.correctness == 0.0

    def test_nothing_reachable_means_complete(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        delivered = oracle.delivered_qos(
            query, returned=[], reachable=[], response_time=1.0, now=0.0,
        )
        assert delivered.completeness == 1.0


class TestRankingMetrics:
    def test_ndcg_perfect_ranking(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        good = _item(query.intent_latent, item_id="good")
        bad = _item(topic_space.basis("tourism", 1.0), item_id="bad")
        assert oracle.ndcg(query, [good, bad]) > oracle.ndcg(query, [bad, good])

    def test_ndcg_bounds(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        items = [
            _item(topic_space.sample(np.random.default_rng(i)), item_id=f"i{i}")
            for i in range(5)
        ]
        value = oracle.ndcg(query, items)
        assert 0.0 <= value <= 1.0 + 1e-9

    def test_ndcg_empty(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        assert oracle.ndcg(query, []) == 0.0

    def test_precision_recall(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        good = [_item(query.intent_latent, item_id=f"g{i}") for i in range(3)]
        bad = _item(topic_space.basis("tourism", 1.0), item_id="bad")
        metrics = oracle.precision_recall(
            query, returned=[good[0], bad], reachable=good + [bad],
        )
        assert metrics["precision"] == pytest.approx(0.5)
        assert metrics["recall"] == pytest.approx(1 / 3)


def _scalar_subset(oracle, query, items):
    return [item for item in items if oracle.is_relevant(query, item)]


def _audit_cases(topic_space, threshold):
    """Item pools for the batched audit: random, degenerate, and borderline."""
    rng = np.random.default_rng(17)
    n = topic_space.n_topics
    random_items = [
        _item(rng.dirichlet(np.full(n, 0.3)), item_id=f"d{i}") for i in range(300)
    ]
    degenerate = [_item(np.zeros(n), item_id="zero0"), _item(np.zeros(n), item_id="zero1")]
    degenerate += [_item(random_items[0].latent, item_id=f"same{i}") for i in range(3)]
    # cos(intent, [c, s, 0...]) lands within a few ulps of c, plus a nudge
    borderline = []
    for i, nudge in enumerate([-1e-12, -3e-13, 0.0, 3e-13, 1e-12]):
        c = min(1.0, max(0.0, threshold + nudge))
        latent = np.zeros(n)
        latent[0], latent[1] = c, np.sqrt(max(0.0, 1.0 - c * c))
        borderline.append(_item(latent, item_id=f"b{i}"))
    return random_items + degenerate + borderline


class TestBatchedAudit:
    """The one-pass audit against the scalar ``is_relevant`` oracle."""

    @pytest.mark.parametrize("threshold", [0.0, 0.75, 1.0])
    def test_subset_and_delivered_qos_match_the_scalar_audit(
        self, topic_space, vocabulary, monkeypatch, threshold
    ):
        oracle = RelevanceOracle(topic_space, relevance_threshold=threshold)
        items = _audit_cases(topic_space, threshold)
        intent = np.zeros(topic_space.n_topics)
        intent[0] = 1.0
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        query.intent_latent = intent
        scalar_calls = []
        is_relevant = oracle.is_relevant

        def counted(q, item):
            scalar_calls.append(item.item_id)
            return is_relevant(q, item)

        monkeypatch.setattr(oracle, "is_relevant", counted)
        got = oracle.relevant_subset(query, items)
        redecided = list(scalar_calls)
        expected = _scalar_subset(oracle, query, items)
        assert [i.item_id for i in got] == [i.item_id for i in expected]
        # the borderline rows went through the scalar re-decision, and
        # only a handful of rows did
        assert {"b0", "b2", "b4"} <= set(redecided)
        assert len(redecided) < 20

        returned = items[:7] + items[-3:]
        batched = oracle.delivered_qos(query, returned, items, 2.0, now=3.0)
        monkeypatch.setattr(
            oracle, "relevant_subset", lambda q, pool: _scalar_subset(oracle, q, pool)
        )
        assert batched == oracle.delivered_qos(query, returned, items, 2.0, now=3.0)

    def test_reference_item_query(self, oracle, topic_space):
        rng = np.random.default_rng(3)
        items = [
            _item(rng.dirichlet(np.full(10, 0.5)), item_id=f"r{i}") for i in range(200)
        ]
        query = Query(kind=QueryKind.SIMILARITY, reference_item=items[0])
        got = oracle.relevant_subset(query, items)
        assert got == _scalar_subset(oracle, query, items)
        assert items[0] in got

    def test_empty_pool_needs_no_intent(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        query.intent_latent = None
        assert oracle.relevant_subset(query, []) == []

    def test_errors_match_the_scalar_path(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        good = _item(topic_space.basis("tourism"), item_id="good")
        negative = _item([-0.5] + [0.15] * 9, item_id="neg")
        short = _item([1.0, 0.0], item_id="short")
        cases = [[good, negative], [good, short, negative], [short, good]]
        for items in cases:
            with pytest.raises(ValueError) as scalar:
                _scalar_subset(oracle, query, items)
            with pytest.raises(ValueError) as batched:
                oracle.relevant_subset(query, items)
            assert str(batched.value) == str(scalar.value)
        missing = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        missing.intent_latent = None
        with pytest.raises(ValueError, match="no intent_latent"):
            oracle.relevant_subset(missing, [good])
        with pytest.raises(ValueError, match="no intent_latent"):
            oracle.delivered_qos(missing, [good], [good], 1.0, now=0.0)
