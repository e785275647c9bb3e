from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportq.core import (
    DialogueState,
    Emotion,
    EmptyEpisode,
    Episode,
    IndexOutOfRange,
    MissingQuery,
    Speaker,
    Stage,
    Strategy,
    StrategyCatalog,
    Transition,
    Turn,
    build_state,
    default_catalog,
    derive_transitions,
)

from .oracles import rescan_build_state


def seeker(text, emotion=None):
    return Turn(Speaker.SEEKER, text, emotion=emotion)


def supporter(text, strategy=None):
    return Turn(Speaker.SUPPORTER, text, strategy=strategy)


def exchanges(n, annotate=True):
    turns = []
    for i in range(n):
        turns.append(seeker(f"query {i}"))
        turns.append(supporter(f"reply {i}", strategy=(i % 8) + 1 if annotate else None))
    return Episode(description="desc", turns=tuple(turns), session_id="e")


class TestCatalog:
    def test_default_catalog_matches_esconv(self, catalog):
        assert len(catalog) == 8
        assert catalog.by_id(1).name == "Question"
        assert catalog.by_id(1).stage is Stage.I
        assert catalog.by_id(3).stage is Stage.II
        assert catalog.by_id(7).stage is Stage.III
        assert catalog.by_id(8).stage is Stage.NONE
        assert catalog.by_name("reflection of feelings").id == 3
        assert catalog.by_name("  RESTATEMENT   or paraphrasing ").id == 2

    def test_by_name_resolves_every_name_and_abbreviation_in_odd_case_and_spacing(self, catalog):
        for s in catalog:
            for text in (s.name, s.abbreviation):
                assert catalog.by_name(" \t" + "   ".join(text.swapcase().split()) + " \n") is s

    def test_by_name_prefers_the_earlier_strategy(self):
        catalog = StrategyCatalog(
            (
                Strategy(1, "Question", "Reflection", Stage.I),
                Strategy(2, "Reflection", "Ref.", Stage.II),
                Strategy(3, "Information", "Question", Stage.III),
            )
        )
        assert catalog.by_name("reflection").id == 1  # an abbreviation before a later name
        assert catalog.by_name("question").id == 1  # a name before a later abbreviation
        assert catalog.by_name("ref.").id == 2

    def test_by_name_rejects_unknown_names(self, catalog):
        for name in ("Questions", "Que", "Restatement", ""):
            with pytest.raises(KeyError, match="unknown strategy name"):
                catalog.by_name(name)

    def test_rejects_bad_catalogs(self):
        q = Strategy(1, "Question", "Que.", Stage.I)
        with pytest.raises(ValueError):
            StrategyCatalog((q,))  # K < 2
        with pytest.raises(ValueError):
            StrategyCatalog((q, Strategy(3, "Other", "O", Stage.NONE)))  # gap in ids
        with pytest.raises(ValueError):
            StrategyCatalog((q, Strategy(2, "question", "Q2", Stage.II)))  # dup name
        with pytest.raises(ValueError):
            StrategyCatalog(
                (
                    Strategy(1, "A", "A", Stage.NONE),
                    Strategy(2, "B", "B", Stage.NONE),
                )
            )  # two unstaged


class TestTypes:
    def test_turn_role_constraints(self):
        with pytest.raises(ValueError):
            Turn(Speaker.SEEKER, "hi", strategy=1)
        with pytest.raises(ValueError):
            Turn(Speaker.SUPPORTER, "hi", emotion=Emotion("anger"))

    def test_state_requires_query_and_alternation(self):
        with pytest.raises(ValueError):
            DialogueState("d", Emotion("fear"), (), "")
        with pytest.raises(ValueError):
            DialogueState(
                "d", Emotion("fear"), (seeker("a"), seeker("b")), "q"
            )

    def test_transition_terminal_invariant(self, bare_state):
        with pytest.raises(ValueError):
            Transition(state=bare_state, action=1, terminal=True, next_state=bare_state)
        with pytest.raises(ValueError):
            Transition(state=bare_state, action=1, terminal=False, next_state=None)

    def test_emotion_intensity_range(self):
        with pytest.raises(ValueError):
            Emotion("anger", 6)
        assert Emotion("anger", 5).render() == "anger (intensity: 5)"
        assert Emotion("anger").render() == "anger"


class TestSlottedTypes:
    """The per-step value types carry no `__dict__` and keep their value semantics."""

    @staticmethod
    def instances():
        emotion = Emotion("anger", 3)
        history = (seeker("hi", emotion=emotion), supporter("hello", strategy=2))
        state = DialogueState("d", emotion, history, "q?")
        nxt = DialogueState("d", emotion, history + (seeker("q?"), supporter("ok", strategy=5)), "next?")
        return [
            emotion,
            Emotion("fear"),
            history[0],
            history[1],
            state,
            Transition(state, 5, 1.0, nxt, response="ok"),
            Transition(nxt, 3, None, None, terminal=True),
            Episode("d", history, "s-1", emotion=emotion),
        ]

    def test_no_instance_dict(self):
        for obj in self.instances():
            assert not hasattr(obj, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, dataclasses.fields(obj)[0].name, None)
            # no slot for it; Python 3.11's generated __setattr__ raises TypeError here, not FrozenInstanceError
            with pytest.raises((AttributeError, TypeError)):
                obj.extra = 1

    def test_pickle_copy_and_replace_keep_the_value(self):
        for obj in self.instances():
            for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj), dataclasses.replace(obj)):
                assert type(twin) is type(obj)
                assert twin == obj and hash(twin) == hash(obj)
        state = self.instances()[4]
        other = dataclasses.replace(state, query="another?")
        assert other != state and other.query == "another?" and other.history is state.history
        with pytest.raises(ValueError):
            dataclasses.replace(state, query="")

    def test_equality_and_hash_follow_the_fields(self):
        a, b = self.instances(), self.instances()
        for x, y in zip(a, b):
            assert x is not y and x == y and hash(x) == hash(y)
        assert len(set(a)) == len(a)


class TestBuildState:
    def test_first_exchange_has_empty_history(self):
        episode = Episode("d", (seeker("q0"), supporter("r0", strategy=1)))
        state = build_state(episode, 0)
        assert state.history == ()
        assert state.query == "q0"

    def test_history_covers_earlier_exchanges_only(self):
        episode = exchanges(3)
        state = build_state(episode, 2)
        assert state.query == "query 2"
        assert [t.text for t in state.history] == ["query 0", "reply 0", "query 1", "reply 1"]

    def test_esconv_style_example(self, catalog):
        episode = Episode(
            description="I hate my job but I am scared to quit and seek a new career.",
            turns=(
                seeker("Seriously! What I'm scare of now is how to secure another job.",
                       emotion=Emotion("anxiety", 5)),
                supporter("I can feel your pain just by chatting with you.",
                          strategy=catalog.by_name("Reflection of Feelings").id),
            ),
            emotion=Emotion("anxiety", 5),
        )
        state = build_state(episode, 0)
        assert state.query.endswith("how to secure another job.")
        assert state.emotion == Emotion("anxiety", 5)
        [tr] = derive_transitions(episode)
        assert tr.action == 3
        assert tr.terminal

    def test_emotion_falls_back_to_session_level(self):
        episode = Episode(
            "d",
            (seeker("q0"), supporter("r0", strategy=1)),
            emotion=Emotion("sadness"),
        )
        assert build_state(episode, 0).emotion.label == "sadness"

    def test_turn_level_emotion_wins(self):
        episode = Episode(
            "d",
            (
                seeker("q0", emotion=Emotion("fear")),
                supporter("r0", strategy=1),
                seeker("q1"),
                supporter("r1", strategy=2),
            ),
            emotion=Emotion("sadness"),
        )
        assert build_state(episode, 0).emotion.label == "fear"
        assert build_state(episode, 1).emotion.label == "fear"  # most recent annotated

    def test_index_errors(self):
        episode = exchanges(2)
        with pytest.raises(IndexOutOfRange):
            build_state(episode, 2)
        with pytest.raises(IndexOutOfRange):
            build_state(episode, -1)

    def test_missing_query(self):
        episode = Episode("d", (supporter("hello", strategy=1),))
        with pytest.raises(MissingQuery):
            build_state(episode, 0)

    def test_leading_supporter_greeting_lands_in_history(self):
        episode = Episode(
            "d",
            (supporter("hello"), seeker("q0"), supporter("r0", strategy=1)),
        )
        state = build_state(episode, 1)
        assert [t.text for t in state.history] == ["hello"]
        assert state.query == "q0"


class TestDeriveTransitions:
    def test_single_supporter_turn_is_terminal(self):
        [tr] = derive_transitions(exchanges(1))
        assert tr.terminal and tr.next_state is None
        assert tr.reward is None
        assert tr.response == "reply 0"

    def test_three_turns_one_terminal(self):
        transitions = derive_transitions(exchanges(3))
        assert len(transitions) == 3
        assert [t.terminal for t in transitions] == [False, False, True]

    def test_transitions_chain(self):
        transitions = derive_transitions(exchanges(4))
        for a, b in zip(transitions, transitions[1:]):
            assert a.next_state == b.state

    def test_unannotated_turns_are_skipped(self):
        episode = Episode(
            "d",
            (
                seeker("q0"),
                supporter("r0", strategy=1),
                seeker("q1"),
                supporter("r1"),  # unannotated
                seeker("q2"),
                supporter("r2", strategy=2),
            ),
        )
        transitions = derive_transitions(episode)
        assert [t.action for t in transitions] == [1, 2]
        assert transitions[0].next_state == transitions[1].state

    def test_empty_episode(self):
        with pytest.raises(EmptyEpisode):
            derive_transitions(exchanges(2, annotate=False))

    def test_count_equals_annotated_supporter_turns(self):
        episode = exchanges(5)
        annotated = sum(1 for t in episode.turns if t.strategy is not None)
        assert len(derive_transitions(episode)) == annotated

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 10), data=st.data())
    def test_no_future_leakage_property(self, n, data):
        annotations = data.draw(
            st.lists(st.one_of(st.none(), st.integers(1, 8)), min_size=n, max_size=n)
        )
        turns = []
        for i, a in enumerate(annotations):
            turns.append(seeker(f"q{i}"))
            turns.append(supporter(f"r{i}", strategy=a))
        episode = Episode("d", tuple(turns))
        if all(a is None for a in annotations):
            with pytest.raises(EmptyEpisode):
                derive_transitions(episode)
            return
        transitions = derive_transitions(episode)
        assert len(transitions) == sum(a is not None for a in annotations)
        assert sum(t.terminal for t in transitions) == 1
        for t in range(n):
            state = build_state(episode, t)
            # the addressed exchange and everything after it stay out of history
            assert f"q{t}" not in [x.text for x in state.history]
            assert all(f"r{j}" not in [x.text for x in state.history] for j in range(t, n))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_states_equal_build_state_and_chain_by_identity(self, data):
        n = data.draw(st.integers(1, 14), label="turns")
        seeker_first = data.draw(st.booleans(), label="seeker_first")
        emotions = data.draw(st.sampled_from(["first seeker turn", "any seeker turn"]), label="emotions")
        session = data.draw(st.one_of(st.none(), st.just(Emotion("sadness"))), label="session emotion")
        turns, seekers = [], 0
        for i in range(n):
            if (i % 2 == 0) == seeker_first:
                if emotions == "first seeker turn":
                    emotion = Emotion("fear", 2) if seekers == 0 else None
                else:
                    labels = st.sampled_from([Emotion("fear"), Emotion("anger", 4)])
                    emotion = data.draw(st.one_of(st.none(), labels))
                turns.append(seeker(f"q{i}", emotion=emotion))
                seekers += 1
            else:
                turns.append(supporter(f"r{i}", strategy=data.draw(st.one_of(st.none(), st.integers(1, 8)))))
        episode = Episode("d", tuple(turns), session_id="p", emotion=session)

        sup = [i for i, turn in enumerate(turns) if turn.speaker is Speaker.SUPPORTER]
        usable = [
            t
            for t, j in enumerate(sup)
            if turns[j].strategy is not None and any(x.speaker is Speaker.SEEKER for x in turns[:j])
        ]
        if not usable:
            with pytest.raises(EmptyEpisode, match="no annotated supporter turn follows a seeker query"):
                derive_transitions(episode)
            return
        transitions = derive_transitions(episode)
        assert len(transitions) == len(usable)
        for n, (tr, t) in enumerate(zip(transitions, usable)):
            assert tr.state == build_state(episode, t) == rescan_build_state(episode, t)
            assert tr.action == turns[sup[t]].strategy
            assert tr.response == turns[sup[t]].text
            if n + 1 < len(transitions):
                assert tr.next_state is transitions[n + 1].state
            else:
                assert tr.terminal and tr.next_state is None

    def test_annotated_turns_before_any_seeker_turn_leave_the_episode_empty(self):
        episode = Episode("d", (supporter("hello", strategy=1), seeker("q0")), session_id="a")
        with pytest.raises(EmptyEpisode, match="'a': no annotated supporter turn follows a seeker query"):
            derive_transitions(episode)


def test_default_catalog_stage_ranks():
    cat = default_catalog()
    ranks = [s.stage.rank for s in cat]
    assert ranks == [1, 1, 2, 2, 3, 3, 3, None]
