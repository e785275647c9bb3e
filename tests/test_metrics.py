from __future__ import annotations

import math

import numpy as np
import pytest

from supportq.env import response_template
from supportq.metrics import (
    EmptyInput,
    LengthMismatch,
    accuracy,
    avg_reward_value,
    bleu2,
    bt_bias,
    bt_strengths,
    cider,
    confusion_matrix,
    distinct2,
    macro_f1,
    rouge_l,
    stage_upper_mass,
    transition_matrix,
    write_matrix_csv,
)

from . import oracles

WORDS = "the a cat dog sat ran on mat rug fast slow happy sad very so and".split()


def random_sentences(rng, n, lo=1, hi=9):
    return [
        " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi))) for _ in range(n)
    ]


class TestAccuracy:
    def test_trivials(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 2, 3], [2, 3, 1]) == 0.0
        assert accuracy([1, 2, 3, 4], [1, 2, 4, 3]) == 0.5

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            accuracy([1], [1, 2])
        with pytest.raises(EmptyInput):
            accuracy([], [])

    def test_equals_confusion_trace(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(1, 9, 200).tolist()
        gold = rng.integers(1, 9, 200).tolist()
        counts = confusion_matrix(pred, gold, 8)
        assert accuracy(pred, gold) == pytest.approx(np.trace(counts) / 200)


class TestMacroF1:
    def test_perfect_with_all_classes_is_one(self):
        labels = list(range(1, 9)) * 3
        assert macro_f1(labels, labels, 8) == 1.0

    def test_degenerate_predictor_matches_hand_computation(self):
        gold = [c for c in range(1, 9) for _ in range(100)]
        pred = [1] * 800
        # per-class F1: class 1 has P=1/8, R=1 -> 2/9; others 0
        expected = (2 * (1 / 8) / (1 + 1 / 8)) / 8
        assert macro_f1(pred, gold, 8) == pytest.approx(expected, abs=1e-12)
        assert macro_f1(pred, gold, 8) == pytest.approx(1 / 36, abs=1e-12)

    def test_consistent_label_swap_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(1, 9, 300).tolist()
        gold = rng.integers(1, 9, 300).tolist()
        swap = {1: 5, 5: 1}
        pred2 = [swap.get(x, x) for x in pred]
        gold2 = [swap.get(x, x) for x in gold]
        assert macro_f1(pred, gold, 8) == pytest.approx(macro_f1(pred2, gold2, 8), abs=1e-12)

    def test_one_iff_diagonal_with_all_classes(self):
        # perfect but missing class 8 entirely -> not 1.0
        labels = list(range(1, 8)) * 2
        assert macro_f1(labels, labels, 8) == pytest.approx(7 / 8)

    def test_matches_oracle_on_random_fixtures(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(2, 9))
            pred = rng.integers(1, k + 1, n).tolist()
            gold = rng.integers(1, k + 1, n).tolist()
            assert macro_f1(pred, gold, k) == pytest.approx(
                oracles.oracle_macro_f1(pred, gold, k), abs=1e-9
            )


class TestBradleyTerry:
    def test_symmetric_wins_give_zero_bias(self):
        # every (i, j) displacement appears with its mirror image
        pred = [1, 2, 2, 3, 1, 3]
        gold = [2, 1, 3, 2, 3, 1]
        assert bt_bias(pred, gold, 3) == pytest.approx(0.0, abs=1e-9)

    def test_perfect_predictions_give_zero_bias(self):
        labels = [1, 2, 3, 1, 2, 3]
        assert bt_bias(labels, labels, 3) == pytest.approx(0.0, abs=1e-12)

    def test_three_class_example_matches_grid_search(self):
        # wins: class 1 displaces class 2 nine times, class 2 displaces 1 once
        pred = [1] * 9 + [2]
        gold = [2] * 9 + [1]
        ours = bt_bias(pred, gold, 3)
        grid = oracles.oracle_bt_bias_grid(pred, gold, 3)
        assert ours == pytest.approx(grid, abs=1e-4)
        assert ours > 0.1  # clearly biased toward class 1

    def test_matches_grid_search_on_random_fixtures(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            n = int(rng.integers(10, 40))
            pred = rng.integers(1, 4, n).tolist()
            gold = rng.integers(1, 4, n).tolist()
            assert bt_bias(pred, gold, 3) == pytest.approx(
                oracles.oracle_bt_bias_grid(pred, gold, 3), abs=1e-4
            )

    def test_strengths_normalized_and_scale_invariant(self):
        rng = np.random.default_rng(4)
        pred = rng.integers(1, 5, 60).tolist()
        gold = rng.integers(1, 5, 60).tolist()
        strengths = bt_strengths(pred, gold, 4)
        assert strengths.sum() == pytest.approx(1.0, abs=1e-12)
        scaled = np.log(strengths * 37.0)
        assert np.std(scaled) == pytest.approx(np.std(np.log(strengths)), abs=1e-12)


class TestBleu2:
    def test_identical_is_one(self):
        assert bleu2(["the cat sat"], ["the cat sat"]) == pytest.approx(1.0)

    def test_disjoint_hits_epsilon_floor(self):
        assert bleu2(["aa bb cc"], ["dd ee ff"]) <= 1e-4

    def test_hand_example_with_brevity_penalty(self):
        score = bleu2(["the cat sat"], ["the cat sat down"])
        assert score == pytest.approx(math.exp(1 - 4 / 3), abs=1e-9)

    def test_bounds_and_oracle(self):
        import random

        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 6)
            hyps = random_sentences(rng, n)
            refs = random_sentences(rng, n)
            ours = bleu2(hyps, refs)
            assert 0.0 <= ours <= 1.0
            assert ours == pytest.approx(oracles.oracle_bleu2(hyps, refs), abs=1e-9)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            bleu2([], [])
        with pytest.raises(LengthMismatch):
            bleu2(["a"], ["a", "b"])


class TestRougeL:
    def test_trivials(self):
        assert rouge_l(["a b c"], ["a b c"]) == pytest.approx(1.0)
        assert rouge_l(["a b"], ["c d"]) == 0.0

    def test_hand_lcs_example(self):
        assert rouge_l(["a b c"], ["a c d"]) == pytest.approx(2 / 3, abs=1e-12)

    def test_oracle_on_random_fixtures(self):
        import random

        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(1, 6)
            hyps = random_sentences(rng, n)
            refs = random_sentences(rng, n)
            assert rouge_l(hyps, refs) == pytest.approx(
                oracles.oracle_rouge_l(hyps, refs), abs=1e-9
            )


class TestDistinct2:
    def test_repeated_bigram(self):
        assert distinct2(["a a a"]) == pytest.approx(0.5)

    def test_all_distinct(self):
        assert distinct2(["a b c d"]) == 1.0

    def test_cross_hypothesis_pooling(self):
        assert distinct2(["a b c", "a b"]) == pytest.approx(2 / 3)

    def test_short_hypotheses_contribute_nothing(self):
        assert distinct2(["word", "x"]) == 0.0

    def test_oracle_on_random_fixtures(self):
        import random

        rng = random.Random(7)
        for _ in range(20):
            hyps = random_sentences(rng, rng.randint(1, 8))
            assert distinct2(hyps) == pytest.approx(oracles.oracle_distinct2(hyps), abs=1e-12)


class TestCider:
    def test_identical_pair_equals_self_similarity(self):
        refs = ["the cat sat on the mat", "a dog ran fast", "so very happy today indeed"]
        hyps = list(refs)
        ours = cider(hyps, refs)
        assert ours == pytest.approx(oracles.oracle_cider(hyps, refs), abs=1e-9)
        # identical pairs hit cosine 1 on every populated n-gram level, so the
        # corpus of unique references scores 10 * mean(populated levels / 4)
        per_pair = [cider([h], [h]) for h in hyps]  # degenerate idf: all zero
        assert all(p == 0.0 for p in per_pair)

    def test_zero_overlap_is_zero(self):
        assert cider(["aa bb cc"], ["dd ee ff"]) == 0.0

    def test_micro_corpus_matches_first_principles(self):
        refs = ["the cat sat", "the dog ran", "a cat ran fast"]
        hyps = ["the cat ran", "a dog sat", "a cat ran fast"]
        assert cider(hyps, refs) == pytest.approx(oracles.oracle_cider(hyps, refs), abs=1e-9)

    def test_oracle_on_random_fixtures(self):
        import random

        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(2, 6)
            hyps = random_sentences(rng, n)
            refs = random_sentences(rng, n)
            ours = cider(hyps, refs)
            assert ours >= 0.0
            assert ours == pytest.approx(oracles.oracle_cider(hyps, refs), abs=1e-9)



def text_suite(hyps, refs):
    return (bleu2(hyps, refs), rouge_l(hyps, refs), distinct2(hyps), cider(hyps, refs))


def per_pair_suite(hyps, refs):
    return (
        oracles.per_pair_bleu2(hyps, refs),
        oracles.per_pair_rouge_l(hyps, refs),
        oracles.per_pair_distinct2(hyps),
        oracles.per_pair_cider(hyps, refs),
    )


def brute_force_suite(hyps, refs):
    return (
        oracles.oracle_bleu2(hyps, refs),
        oracles.oracle_rouge_l(hyps, refs),
        oracles.oracle_distinct2(hyps),
        oracles.oracle_cider(hyps, refs),
    )


def templated_corpus(catalog, n, seed):
    """Eval's shape in env mode: each turn's hypothesis is the template of the
    predicted strategy and its reference the template of the gold one."""
    rng = np.random.default_rng(seed)
    templates = [response_template(s.name) for s in catalog]
    pred = rng.integers(1, len(catalog) + 1, n).tolist()
    gold = rng.integers(1, len(catalog) + 1, n).tolist()
    return [templates[p - 1] for p in pred], [templates[g - 1] for g in gold], gold


def repeated_corpus(seed, n):
    """Pairs drawn with replacement from a small pool that holds empty,
    blank and one-token texts, so most pairs and texts repeat."""
    import random

    rng = random.Random(seed)
    pool = ["", "   ", "cat", "Cat", "sad"] + random_sentences(rng, 6)
    return [rng.choice(pool) for _ in range(n)], [rng.choice(pool) for _ in range(n)]


class TestTextMetricsEqualPerPair:
    """Scoring each distinct pair once changes no bit of any text metric."""

    def test_templated_corpus(self, catalog):
        hyps, refs, _ = templated_corpus(catalog, 640, seed=0)
        assert len(set(hyps)) == len(set(refs)) == 8
        ours = text_suite(hyps, refs)
        assert ours == per_pair_suite(hyps, refs)
        assert ours == pytest.approx(brute_force_suite(hyps, refs), abs=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_corpora_with_repeats(self, seed):
        hyps, refs = repeated_corpus(seed, n=1 + 7 * seed)
        ours = text_suite(hyps, refs)
        assert ours == per_pair_suite(hyps, refs)
        assert ours == pytest.approx(brute_force_suite(hyps, refs), abs=1e-9)

    def test_degenerate_corpora(self):
        for hyps, refs in [
            ([""], [""]),
            (["", ""], ["cat", ""]),
            (["cat"] * 5, ["cat"] * 5),
            (["cat", "dog"] * 3, ["dog", "dog", "cat"] * 2),
            (["the cat sat"] * 4, ["", "the", "the cat", "the cat sat on"]),
        ]:
            assert text_suite(hyps, refs) == per_pair_suite(hyps, refs)

    def test_per_strategy_subsets(self, catalog):
        hyps, refs, gold = templated_corpus(catalog, 520, seed=1)
        rh, rr = repeated_corpus(seed=3, n=520)
        for corpus_h, corpus_r in ((hyps, refs), (rh, rr)):
            for s in catalog:
                idx = [i for i, g in enumerate(gold) if g == s.id]
                sub_h = [corpus_h[i] for i in idx]
                sub_r = [corpus_r[i] for i in idx]
                assert text_suite(sub_h, sub_r) == per_pair_suite(sub_h, sub_r)

class TestMatrices:
    def test_perfect_predictions_diagonal(self):
        labels = [1, 2, 3, 2, 1]
        counts = confusion_matrix(labels, labels, 3)
        assert np.all(counts == np.diag([2, 2, 1]))

    def test_transition_pairs(self):
        counts = transition_matrix([[1, 2, 3]], 3)
        assert counts[0, 1] == 1 and counts[1, 2] == 1
        assert counts.sum() == 2

    def test_no_cross_episode_transitions(self):
        counts = transition_matrix([[1, 2], [3, 1]], 3)
        assert counts[1, 2] == 0  # 2 -> 3 spans the episode boundary
        assert counts.sum() == 2

    def test_total_mass_is_sum_of_lengths_minus_one(self):
        rng = np.random.default_rng(9)
        seqs = [rng.integers(1, 9, rng.integers(1, 10)).tolist() for _ in range(30)]
        counts = transition_matrix(seqs, 8)
        assert counts.sum() == sum(max(len(s) - 1, 0) for s in seqs)

    def test_matrix_csv_has_strategy_headers(self, tmp_path, catalog):
        counts = confusion_matrix([1, 2], [1, 2], 8)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, counts, catalog)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[1] == "Que."
        assert len(lines) == 9


class TestStageUpperMass:
    def test_strictly_advancing_policy_is_one(self, catalog):
        counts = transition_matrix([[1, 3, 5], [2, 4, 6]], 8)
        assert stage_upper_mass(counts, catalog) == 1.0

    def test_strictly_regressing_policy_is_zero(self, catalog):
        counts = transition_matrix([[5, 3, 1], [7, 4, 2]], 8)
        assert stage_upper_mass(counts, catalog) == 0.0

    def test_unstaged_strategies_excluded(self, catalog):
        counts = transition_matrix([[8, 8, 8, 1, 3]], 8)
        # only 1 -> 3 involves two staged strategies
        assert stage_upper_mass(counts, catalog) == 1.0

    def test_uniform_baseline_from_cell_enumeration(self, catalog):
        # exact enumeration oracle over the 7x7 staged cells with unit mass
        k = len(catalog)
        counts = np.ones((k, k), dtype=np.int64)
        ranks = [s.stage.rank for s in catalog]
        favorable = total = 0
        for i in range(k):
            for j in range(k):
                if ranks[i] is None or ranks[j] is None:
                    continue
                total += 1
                if ranks[i] <= ranks[j]:
                    favorable += 1
        assert total == 49
        assert favorable == 33  # stage multiplicities I:2, II:2, III:3
        assert stage_upper_mass(counts, catalog) == pytest.approx(favorable / total)

    def test_zero_staged_mass_defaults_to_zero(self, catalog):
        counts = transition_matrix([[8, 8]], 8)
        assert stage_upper_mass(counts, catalog) == 0.0


class TestAvgRewardValue:
    def test_single_turn(self):
        avg_r, avg_v = avg_reward_value([[3.0]], gamma=0.85)
        assert avg_r == 3.0 and avg_v == 3.0

    def test_two_turn_discounting(self):
        avg_r, avg_v = avg_reward_value([[1.0, 1.0]], gamma=0.85)
        assert avg_r == pytest.approx(1.0)
        assert avg_v == pytest.approx(1.85 + 1.0)

    def test_matches_brute_force_over_many_episodes(self):
        rng = np.random.default_rng(10)
        sequences = [rng.normal(size=rng.integers(1, 9)).tolist() for _ in range(100)]
        ours = avg_reward_value(sequences, gamma=0.85)
        oracle = oracles.oracle_returns(sequences, gamma=0.85)
        assert ours[0] == pytest.approx(oracle[0], abs=1e-9)
        assert ours[1] == pytest.approx(oracle[1], abs=1e-9)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            avg_reward_value([], gamma=0.85)
        with pytest.raises(EmptyInput):
            avg_reward_value([[], []], gamma=0.85)
