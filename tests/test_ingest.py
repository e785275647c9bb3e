from __future__ import annotations

import json
import logging
from collections import Counter

import pytest

from supportq.core import EmptyEpisode, Speaker, derive_transitions
from supportq.env import StagedEnv, StagedEnvConfig
from supportq.ingest import (
    ParseError,
    UnknownEmotion,
    UnknownStrategy,
    corpus_stats,
    load_esconv,
    load_plain_dialogues,
    save_episodes,
    split_episodes,
)


def test_library_adds_no_output_handler():
    handlers = logging.getLogger("supportq.ingest").handlers
    assert handlers and all(isinstance(h, logging.NullHandler) for h in handlers)


def write(tmp_path, payload, name="corpus.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


SESSION = {
    "situation": "I hate my job but I am scared to quit and seek a new career.",
    "emotion_type": "anxiety",
    "intensity": 5,
    "dialog": [
        {"speaker": "seeker", "content": "Seriously! What I'm scare of now is how to secure another job."},
        {
            "speaker": "supporter",
            "content": "I can feel your pain just by chatting with you.",
            "annotation": {"strategy": "Reflection of feelings"},
        },
    ],
}


class TestLoadEsconv:
    def test_appendix_style_session(self, tmp_path, catalog):
        [episode] = load_esconv(write(tmp_path, [SESSION]))
        assert episode.emotion.label == "anxiety"
        assert episode.emotion.intensity == 5
        assert episode.turns[1].strategy == catalog.by_name("Reflection of Feelings").id
        [tr] = derive_transitions(episode)
        assert tr.action == 3

    def test_lowercase_strategy_resolves(self, tmp_path):
        session = json.loads(json.dumps(SESSION))
        session["dialog"][1]["annotation"]["strategy"] = "reflection of feelings"
        [episode] = load_esconv(write(tmp_path, [session]))
        assert episode.turns[1].strategy == 3

    def test_empty_file_is_empty_list(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            assert load_esconv(write(tmp_path, [])) == []
        assert not caplog.records

    def test_sessions_without_annotations_dropped_with_warning(self, tmp_path, caplog):
        bare = {
            "situation": "s",
            "emotion_type": "fear",
            "dialog": [
                {"speaker": "seeker", "content": "hi"},
                {"speaker": "supporter", "content": "hello"},
            ],
        }
        with caplog.at_level(logging.WARNING, logger="supportq.ingest"):
            episodes = load_esconv(write(tmp_path, [bare, SESSION]))
        assert len(episodes) == 1
        assert any("dropped 1 session" in r.getMessage() for r in caplog.records)

    def test_same_speaker_turns_merge_with_newline(self, tmp_path):
        session = {
            "situation": "s",
            "emotion_type": "anger",
            "dialog": [
                {"speaker": "seeker", "content": "part one"},
                {"speaker": "seeker", "content": "part two"},
                {
                    "speaker": "supporter",
                    "content": "reply",
                    "annotation": {"strategy": "Question"},
                },
            ],
        }
        [episode] = load_esconv(write(tmp_path, [session]))
        assert len(episode.turns) == 2
        assert episode.turns[0].text == "part one\npart two"

    def test_merge_keeps_first_annotation(self, tmp_path):
        session = {
            "situation": "s",
            "emotion_type": "anger",
            "dialog": [
                {"speaker": "seeker", "content": "q"},
                {"speaker": "supporter", "content": "a", "annotation": {"strategy": "Question"}},
                {"speaker": "supporter", "content": "b"},
            ],
        }
        [episode] = load_esconv(write(tmp_path, [session]))
        assert episode.turns[1].text == "a\nb"
        assert episode.turns[1].strategy == 1

    def test_unknown_strategy_has_context(self, tmp_path):
        session = json.loads(json.dumps(SESSION))
        session["dialog"][1]["annotation"]["strategy"] = "Hypnosis"
        with pytest.raises(UnknownStrategy) as err:
            load_esconv(write(tmp_path, [session]))
        assert "session 0" in str(err.value)
        assert "Hypnosis" in str(err.value)

    def test_unknown_emotion_rejected(self, tmp_path):
        session = json.loads(json.dumps(SESSION))
        session["emotion_type"] = "elation"
        with pytest.raises(UnknownEmotion):
            load_esconv(write(tmp_path, [session]))
        # but accepted when validation is disabled
        [episode] = load_esconv(write(tmp_path, [session]), emotion_vocabulary=None)
        assert episode.emotion.label == "elation"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json]")
        with pytest.raises(ParseError):
            load_esconv(path)
        with pytest.raises(ParseError):
            load_esconv(write(tmp_path, {"not": "a list"}, name="obj.json"))


class TestLoadPlain:
    def test_two_turn_dialogue(self, tmp_path):
        payload = [
            {
                "situation": "context",
                "dialog": [
                    {"speaker": "speaker", "text": "I feel low."},
                    {"speaker": "listener", "text": "Tell me more."},
                ],
            }
        ]
        [episode] = load_plain_dialogues(write(tmp_path, payload))
        assert len(episode.turns) == 2
        assert episode.turns[0].speaker is Speaker.SEEKER
        assert episode.turns[1].speaker is Speaker.SUPPORTER  # listener alias
        assert all(t.strategy is None for t in episode.turns)

    def test_plain_episodes_cannot_train(self, tmp_path):
        payload = [
            {
                "situation": "c",
                "dialog": [
                    {"speaker": "usr", "content": "hi"},
                    {"speaker": "sys", "content": "hello"},
                ],
            }
        ]
        [episode] = load_plain_dialogues(write(tmp_path, payload))
        with pytest.raises(EmptyEpisode):
            derive_transitions(episode)

    def test_strategy_annotations_ignored(self, tmp_path):
        [episode] = load_plain_dialogues(write(tmp_path, [SESSION]))
        assert all(t.strategy is None for t in episode.turns)


class TestRoundTrip:
    def test_load_save_load_fixed_point(self, tmp_path, catalog):
        env = StagedEnv(StagedEnvConfig(seed=4), catalog=catalog)
        episodes = env.demo_episodes(6, seed=2)
        first = tmp_path / "first.json"
        save_episodes(first, episodes, catalog)
        loaded = load_esconv(first)
        second = tmp_path / "second.json"
        save_episodes(second, loaded, catalog)
        reloaded = load_esconv(second)
        assert loaded == reloaded
        for a, b in zip(loaded, reloaded):
            assert derive_transitions(a) == derive_transitions(b)

    def test_saved_bytes_are_the_streaming_encoders(self, tmp_path, catalog):
        # the file is `json.dump`'s indented, non-ASCII-escaping output, byte for byte
        env = StagedEnv(StagedEnvConfig(seed=4), catalog=catalog)
        session = {**SESSION, "situation": "Ich fühle mich — 不安\n\"gefangen\""}
        episodes = env.demo_episodes(4, seed=2) + load_esconv(write(tmp_path, [session]))
        path = tmp_path / "saved.json"
        save_episodes(path, episodes, catalog)
        sessions = json.loads(path.read_text(encoding="utf-8"))
        assert sessions[-1]["situation"] == session["situation"]
        streamed = tmp_path / "streamed.json"
        with open(streamed, "w", encoding="utf-8") as fh:
            json.dump(sessions, fh, ensure_ascii=False, indent=1)
        assert path.read_bytes() == streamed.read_bytes()

    def test_resolved_ids_map_back_to_names(self, tmp_path, catalog):
        [episode] = load_esconv(write(tmp_path, [SESSION]))
        for turn in episode.turns:
            if turn.strategy is not None:
                assert catalog.by_id(turn.strategy).name


class TestStats:
    def test_small_session_arithmetic(self, tmp_path):
        session = {
            "situation": "s",
            "emotion_type": "sadness",
            "dialog": [
                {"speaker": "seeker", "content": "one two"},
                {"speaker": "supporter", "content": "three four", "annotation": {"strategy": "Question"}},
                {"speaker": "seeker", "content": "five six"},
                {"speaker": "supporter", "content": "seven eight", "annotation": {"strategy": "Question"}},
            ],
        }
        stats = corpus_stats(load_esconv(write(tmp_path, [session])))
        assert stats.sessions == 1
        assert stats.utterances == 4
        assert stats.avg_utterances_per_session == 4
        assert stats.avg_utterance_length == 2.0
        assert stats.emotion_counts == {"sadness": 1}
        assert stats.strategy_counts == {"Question": 2}
        assert stats.seeker["utterances"] == 2
        assert stats.supporter["avg_length"] == 2.0

    def test_histogram_matches_generator_tally(self, catalog):
        env = StagedEnv(StagedEnvConfig(seed=8), catalog=catalog)
        episodes = env.demo_episodes(20, seed=3)
        expected = Counter()
        for ep in episodes:
            for turn in ep.turns:
                if turn.strategy is not None:
                    expected[catalog.by_id(turn.strategy).name] += 1
        stats = corpus_stats(episodes, catalog)
        assert stats.strategy_counts == dict(sorted(expected.items()))

    def test_empty_input_all_zero(self):
        stats = corpus_stats([])
        assert stats.sessions == 0
        assert stats.utterances == 0
        assert stats.avg_utterance_length == 0.0
        assert stats.emotion_counts == {}


class TestSplit:
    def test_ratio_and_determinism(self, catalog):
        env = StagedEnv(StagedEnvConfig(seed=1), catalog=catalog)
        episodes = env.demo_episodes(20, seed=0)
        train_a, test_a = split_episodes(episodes, ratio=0.9, seed=7)
        train_b, test_b = split_episodes(episodes, ratio=0.9, seed=7)
        assert len(train_a) == 18 and len(test_a) == 2
        assert [e.session_id for e in train_a] == [e.session_id for e in train_b]
        assert [e.session_id for e in test_a] == [e.session_id for e in test_b]
        assert set(e.session_id for e in train_a + test_a) == set(
            e.session_id for e in episodes
        )

    def test_invalid_ratio(self, catalog):
        with pytest.raises(ValueError):
            split_episodes([], ratio=1.0)
