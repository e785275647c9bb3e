"""Evaluation metrics for strategy prediction and response quality.

Strategy side: accuracy, macro-F1 proficiency, and a Bradley-Terry
preference-bias score (how lopsided the predictor's strategy preferences
are; 0 for unbiased or perfect predictors, larger means more skew).
Response side: corpus BLEU-2, ROUGE-L, Distinct-2 and CIDEr over lowercased
whitespace tokens.  Plus the analysis artifacts: confusion and transition
matrices, the stage-ordering mass of a transition matrix, and averaged
reward / summed discounted return over rollouts.

Everything here is a pure function: no state outlives a call.  Within a
call, each text metric tokenises and counts n-grams once per distinct text
and scores each distinct (hypothesis, reference) pair once, then expands the
per-pair values back to input order before the final mean or integer sums.
So the results equal the per-pair definition bit for bit
(`tests/oracles.py`'s `per_pair_*`).  Eval's hypotheses are the 8 strategy
templates, so a corpus of thousands of turns holds only a few dozen distinct
pairs when its references are templated too; when the references are mostly
distinct the saving shrinks to the hypotheses' side.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import StrategyCatalog


class LengthMismatch(ValueError):
    """Prediction and gold label sequences differ in length."""


class EmptyInput(ValueError):
    """Metric called on empty input."""


def _check_pair_lengths(pred: Sequence[int], gold: Sequence[int]) -> None:
    if len(pred) != len(gold):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(gold)} gold labels")
    if len(pred) == 0:
        raise EmptyInput("no samples")


def accuracy(pred: Sequence[int], gold: Sequence[int]) -> float:
    _check_pair_lengths(pred, gold)
    return sum(p == g for p, g in zip(pred, gold)) / len(pred)


def confusion_matrix(pred: Sequence[int], gold: Sequence[int], k: int) -> np.ndarray:
    """counts[i-1][j-1] = #{samples with prediction i and gold j}."""
    _check_pair_lengths(pred, gold)
    counts = np.zeros((k, k), dtype=np.int64)
    for p, g in zip(pred, gold):
        counts[p - 1, g - 1] += 1
    return counts


def per_class_f1(counts: np.ndarray) -> np.ndarray:
    """F1 of each class from a `confusion_matrix`; a class absent everywhere scores 0."""
    tp = np.diag(counts)
    denom = 2 * tp + (counts.sum(axis=1) - tp) + (counts.sum(axis=0) - tp)
    return np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)


def macro_f1(pred: Sequence[int], gold: Sequence[int], k: int) -> float:
    """Unweighted mean of per-class F1; classes absent everywhere count as 0."""
    return float(np.mean(per_class_f1(confusion_matrix(pred, gold, k))))


def bt_strengths(
    pred: Sequence[int],
    gold: Sequence[int],
    k: int,
    prior: float = 0.1,
    tol: float = 1e-10,
    max_iters: int = 100_000,
) -> np.ndarray:
    """Bradley-Terry strengths of the predictor's strategy preferences.

    Every misprediction is read as "class pred beat class gold"; a uniform
    prior count on every ordered pair keeps the maximum-likelihood problem
    well posed.  Fitted by minorization-maximization, normalized to sum 1.
    """
    _check_pair_lengths(pred, gold)
    wins = np.zeros((k, k), dtype=np.float64)
    for p, g in zip(pred, gold):
        if p != g:
            wins[p - 1, g - 1] += 1.0
    wins += prior
    np.fill_diagonal(wins, 0.0)

    comparisons = wins + wins.T
    total_wins = wins.sum(axis=1)
    p = np.full(k, 1.0 / k)
    prev_change = np.inf
    for _ in range(max_iters):
        pair_sums = p[:, None] + p[None, :]
        ratios = np.divide(comparisons, pair_sums, out=np.zeros_like(comparisons), where=pair_sums > 0)
        np.fill_diagonal(ratios, 0.0)
        p_new = total_wins / ratios.sum(axis=1)
        p_new /= p_new.sum()
        # minorization converges linearly; bound the geometric tail so that
        # `tol` limits the log-domain distance to the fixed point itself
        change = np.abs(np.log(p_new) - np.log(p)).max()
        rate = change / prev_change if prev_change > 0 else 0.0
        remaining = change * rate / (1.0 - rate) if rate < 1.0 else np.inf
        p = p_new
        prev_change = change
        if change < tol and remaining < tol:
            return p
    return p


def bt_bias(pred: Sequence[int], gold: Sequence[int], k: int, prior: float = 0.1) -> float:
    """Standard deviation of log Bradley-Terry strengths; smaller is less biased."""
    return strength_bias(bt_strengths(pred, gold, k, prior=prior))


def strength_bias(strengths: np.ndarray) -> float:
    """`bt_bias` of strengths already fitted by `bt_strengths`."""
    return float(np.std(np.log(strengths)))


# -- text metrics ------------------------------------------------------------


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _check_text_pairs(hyps: Sequence[str], refs: Sequence[str]) -> None:
    if len(hyps) == 0:
        raise EmptyInput("no hypotheses")
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} hypotheses vs {len(refs)} references")


def _tokenised(*corpora: Sequence[str]) -> dict[str, list[str]]:
    """Each distinct text of the corpora, tokenised once."""
    return {text: _tokens(text) for text in dict.fromkeys(itertools.chain(*corpora))}


def bleu2(hyps: Sequence[str], refs: Sequence[str], eps: float = 1e-9) -> float:
    """Corpus BLEU with uniform 1/2-gram weights, clipped counts, brevity
    penalty exp(1 - r/c) for short output, and eps-floored precisions.

    Every count is an integer, so each distinct pair is counted once and
    weighted by how often it occurs."""
    _check_text_pairs(hyps, refs)
    toks = _tokenised(hyps, refs)
    grams = {text: (_ngrams(t, 1), _ngrams(t, 2)) for text, t in toks.items()}
    matches = [0, 0]
    totals = [0, 0]
    hyp_len = 0
    ref_len = 0
    for (hyp, ref), m in Counter(zip(hyps, refs)).items():
        hyp_len += m * len(toks[hyp])
        ref_len += m * len(toks[ref])
        for n in (1, 2):
            hc, rc = grams[hyp][n - 1], grams[ref][n - 1]
            matches[n - 1] += m * sum(min(c, rc[g]) for g, c in hc.items())
            totals[n - 1] += m * sum(hc.values())
    if hyp_len == 0:
        return 0.0
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    precisions = [p if p > 0.0 else eps for p in precisions]
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(0.5 * (math.log(precisions[0]) + math.log(precisions[1])))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(hyps: Sequence[str], refs: Sequence[str], beta: float = 1.2) -> float:
    """Mean LCS-based F-measure with recall weight beta."""
    _check_text_pairs(hyps, refs)
    toks = _tokenised(hyps, refs)
    pair_score = {}
    for hyp, ref in dict.fromkeys(zip(hyps, refs)):
        h, r = toks[hyp], toks[ref]
        lcs = _lcs_length(h, r)
        if lcs == 0 or not h or not r:
            pair_score[hyp, ref] = 0.0
            continue
        precision = lcs / len(h)
        recall = lcs / len(r)
        pair_score[hyp, ref] = (1 + beta**2) * precision * recall / (recall + beta**2 * precision)
    return float(np.mean([pair_score[pair] for pair in zip(hyps, refs)]))


def distinct2(hyps: Sequence[str]) -> float:
    """Unique bigrams / total bigrams pooled over all hypotheses."""
    if len(hyps) == 0:
        raise EmptyInput("no hypotheses")
    total = 0
    seen: set[tuple[str, str]] = set()
    for hyp, m in Counter(hyps).items():
        toks = _tokens(hyp)
        bigrams = list(zip(toks, toks[1:]))
        seen.update(bigrams)
        total += m * len(bigrams)
    return len(seen) / total if total else 0.0


def cider(
    hyps: Sequence[str], refs: Sequence[str], max_n: int = 4, sigma: float = 6.0
) -> float:
    """tf-idf n-gram cosine similarity, n = 1..max_n, with a Gaussian length
    penalty, scaled by 10.  Document frequencies come from the references.

    The document frequencies are fixed for a call, so each distinct text's
    tf-idf vectors and their norms are built once."""
    _check_text_pairs(hyps, refs)
    n_docs = len(refs)
    toks = _tokenised(hyps, refs)
    grams = {text: [_ngrams(t, n) for n in range(1, max_n + 1)] for text, t in toks.items()}
    doc_freq: list[Counter] = [Counter() for _ in range(max_n)]
    for ref, m in Counter(refs).items():
        for df, counts in zip(doc_freq, grams[ref]):
            for g in counts:
                df[g] += m

    vectors = {
        text: [
            {g: c * math.log(n_docs / max(df[g], 1)) for g, c in counts.items()}
            for df, counts in zip(doc_freq, per_n)
        ]
        for text, per_n in grams.items()
    }
    norms = {
        text: [math.sqrt(sum(w * w for w in v.values())) for v in vs] for text, vs in vectors.items()
    }

    pair_score = {}
    for hyp, ref in dict.fromkeys(zip(hyps, refs)):
        penalty = math.exp(-((len(toks[hyp]) - len(toks[ref])) ** 2) / (2 * sigma**2))
        sims = []
        for hv, rv, norm_h, norm_r in zip(vectors[hyp], vectors[ref], norms[hyp], norms[ref]):
            dot = sum(w * rv[g] for g, w in hv.items() if g in rv)
            sims.append(dot / (norm_h * norm_r) if norm_h > 0 and norm_r > 0 else 0.0)
        pair_score[hyp, ref] = 10.0 * penalty * float(np.mean(sims))
    return float(np.mean([pair_score[pair] for pair in zip(hyps, refs)]))


# -- analysis artifacts --------------------------------------------------------


def transition_matrix(action_sequences: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """counts[i-1][j-1] = #{consecutive within-episode action pairs (i, j)}."""
    counts = np.zeros((k, k), dtype=np.int64)
    for seq in action_sequences:
        for a, b in zip(seq, seq[1:]):
            counts[a - 1, b - 1] += 1
    return counts


def stage_upper_mass(matrix: np.ndarray, catalog: StrategyCatalog) -> float:
    """Fraction of transition mass that holds or advances the stage order.

    Unstaged strategies are excluded from both numerator and denominator.
    """
    k = len(catalog)
    ranks = [catalog.stage_of(i + 1).rank for i in range(k)]
    total = 0.0
    favorable = 0.0
    for i in range(k):
        if ranks[i] is None:
            continue
        for j in range(k):
            if ranks[j] is None:
                continue
            mass = float(matrix[i, j])
            total += mass
            if ranks[i] <= ranks[j]:
                favorable += mass
    return favorable / total if total else 0.0


def avg_reward_value(reward_sequences: Sequence[Sequence[float]], gamma: float) -> tuple[float, float]:
    """(mean per-turn reward, sum over all turns of the discounted return).

    The return of turn t inside its episode is sum_{k>=t} gamma^(k-t) r_k;
    returns are summed (not averaged) across evaluated turns, which is why
    the value column is orders of magnitude above single rewards.
    """
    all_rewards: list[float] = []
    value_sum = 0.0
    for seq in reward_sequences:
        g = 0.0
        returns = []
        for r in reversed(list(seq)):
            g = r + gamma * g
            returns.append(g)
        value_sum += sum(returns)
        all_rewards.extend(seq)
    if not all_rewards:
        raise EmptyInput("no rewards")
    return float(np.mean(all_rewards)), float(value_sum)


@dataclass
class MetricReport:
    accuracy: float
    proficiency: float  # macro-F1
    preference_bias: float
    bleu2: float
    rouge_l: float
    distinct2: float
    cider: float
    confusion: np.ndarray
    transition: np.ndarray
    avg_reward: float = float("nan")
    avg_value: float = float("nan")
    mean_model_q: Optional[float] = None
    n_samples: int = 0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["confusion"] = self.confusion.tolist()
        out["transition"] = self.transition.tolist()
        return out


def write_matrix_csv(path, matrix: np.ndarray, catalog: StrategyCatalog) -> None:
    """Matrix with strategy-name row/column headers."""
    names = [s.abbreviation for s in catalog]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + names)
        for name, row in zip(names, matrix):
            writer.writerow([name] + [int(x) if float(x).is_integer() else float(x) for x in row])
