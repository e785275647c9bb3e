"""`Scorer.select_strategies` and `encode_states` on both backends."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from supportq.core import Emotion, Episode, Speaker, Turn, derive_transitions
from supportq.qnet.base import encode_states

BACKENDS = ["seq_scorer", "mlp_scorer"]


@pytest.fixture
def states(tiny_state, bare_state):
    """Repeated objects, distinct objects with equal values, states whose
    mlp features coincide, and the states of one derived episode."""
    turns = []
    for i in range(4):
        emotion = Emotion("fear") if i == 0 else None
        turns.append(Turn(Speaker.SEEKER, f"I keep worrying about step {i}.", emotion=emotion))
        turns.append(Turn(Speaker.SUPPORTER, f"reply {i}", strategy=i + 1))
    derived = [tr.state for tr in derive_transitions(Episode("my exams", tuple(turns)))]
    return [
        tiny_state,
        bare_state,
        tiny_state,
        dataclasses.replace(tiny_state),
        dataclasses.replace(tiny_state, description="Another description entirely."),
        *derived,
        bare_state,
        derived[2],
    ]


def zeroed(scorer):
    constant = scorer.clone()
    for array in constant.params.values():
        array[:] = 0.0
    return constant


@pytest.mark.parametrize("fixture", BACKENDS)
class TestSelectStrategies:
    def test_each_pick_equals_select_strategy(self, request, fixture, states, catalog, small_vocab):
        scorer = request.getfixturevalue(fixture)
        picks = scorer.select_strategies(states, catalog, small_vocab)
        assert picks == [scorer.select_strategy(s, catalog, small_vocab) for s in states]
        assert all(type(p) is int for p in picks)

    def test_q_rows_equal_q_all(self, request, fixture, states, catalog, small_vocab):
        scorer = request.getfixturevalue(fixture)
        table, rows = encode_states(scorer, states, catalog, small_vocab)
        q = scorer.q_encoded(table, np.arange(len(table)), catalog, small_vocab)
        for state, row in zip(states, rows):
            np.testing.assert_array_equal(q[row], scorer.q_all(state, catalog, small_vocab))

    def test_all_tied_scorer_picks_the_smallest_id(self, request, fixture, states, catalog, small_vocab):
        constant = zeroed(request.getfixturevalue(fixture))
        assert constant.select_strategies(states, catalog, small_vocab) == [1] * len(states)

    def test_no_states_no_picks(self, request, fixture, catalog, small_vocab):
        assert request.getfixturevalue(fixture).select_strategies([], catalog, small_vocab) == []

    def test_one_q_encoded_call_over_the_distinct_codes(
        self, request, fixture, states, catalog, small_vocab, monkeypatch
    ):
        scorer = request.getfixturevalue(fixture)
        table, _ = encode_states(scorer, states, catalog, small_vocab)
        calls = []
        original = scorer.q_encoded

        def counted(table, rows, *args):
            calls.append(len(rows))
            return original(table, rows, *args)

        monkeypatch.setattr(scorer, "q_encoded", counted)
        scorer.select_strategies(states, catalog, small_vocab)
        assert calls == [len(table)]
        assert len(table) < len(states)


def test_mlp_codes_come_back_stacked(mlp_scorer, states, catalog):
    table, rows = encode_states(mlp_scorer, states, catalog, None)
    assert isinstance(table, np.ndarray) and table.ndim == 2
    for state, row in zip(states, rows):
        np.testing.assert_array_equal(table[row], mlp_scorer.encode(state, catalog))


def test_seq_codes_of_several_lengths_stay_a_list(seq_scorer, states, catalog, small_vocab):
    table, rows = encode_states(seq_scorer, states, catalog, small_vocab)
    assert isinstance(table, list) and len({len(code) for code in table}) > 1
    for state, row in zip(states, rows):
        np.testing.assert_array_equal(table[row], seq_scorer.encode(state, catalog, small_vocab))


NAN_BIAS = {"seq_scorer": "head.b", "mlp_scorer": "layers.0.b"}


@pytest.mark.parametrize("fixture", BACKENDS)
class TestNonFiniteQ:
    """A NaN in one bias makes every Q read and the TD loss raise."""

    @pytest.fixture
    def broken(self, request, fixture):
        scorer = request.getfixturevalue(fixture).clone()
        scorer.params[NAN_BIAS[fixture]][0] = np.nan
        return scorer

    @pytest.mark.parametrize(
        "call",
        [
            lambda s, st, c, v: s.q_all(st, c, v),
            lambda s, st, c, v: s.q_value(st, 2, c, v),
            lambda s, st, c, v: s.select_strategy(st, c, v),
            lambda s, st, c, v: s.select_strategies([st, st], c, v),
            lambda s, st, c, v: s.loss_and_grads([(st, 2, 0.5), (st, 3, -0.5)], c, v),
        ],
        ids=["q_all", "q_value", "select_strategy", "select_strategies", "loss_and_grads"],
    )
    def test_raises(self, broken, call, tiny_state, catalog, small_vocab):
        with pytest.raises(FloatingPointError, match="non-finite Q value"):
            call(broken, tiny_state, catalog, small_vocab)

    def test_q_value_reads_the_row_without_q_all(
        self, request, fixture, tiny_state, catalog, small_vocab, monkeypatch
    ):
        """perfbench counts q_all and q_value calls apart."""
        scorer = request.getfixturevalue(fixture)
        row = scorer.q_all(tiny_state, catalog, small_vocab)
        monkeypatch.setattr(type(scorer), "q_all", None)
        assert [scorer.q_value(tiny_state, a, catalog, small_vocab) for a in catalog.ids] == row.tolist()
