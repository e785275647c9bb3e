"""Independent brute-force oracles the library metrics are checked against.

Everything here is written from the metric definitions with plain loops and
dictionaries, deliberately sharing no code with supportq.metrics.  The one
scorer oracle, `oracle_seq_q_all`, is the reference slow path of the `seq`
Q kernel: a full tape forward pass per action.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from supportq.encoding import encode_pair


def words(text):
    return text.lower().split()


def grams(tokens, n):
    out = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i : i + n])
        out[g] = out.get(g, 0) + 1
    return out


def oracle_accuracy(pred, gold):
    hits = 0
    for p, g in zip(pred, gold):
        if p == g:
            hits += 1
    return hits / len(pred)


def oracle_macro_f1(pred, gold, k):
    total = 0.0
    for c in range(1, k + 1):
        tp = sum(1 for p, g in zip(pred, gold) if p == c and g == c)
        fp = sum(1 for p, g in zip(pred, gold) if p == c and g != c)
        fn = sum(1 for p, g in zip(pred, gold) if p != c and g == c)
        if tp + fp == 0 or tp + fn == 0:
            f1 = 0.0
        else:
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        total += f1
    return total / k


def oracle_bleu2(hyps, refs, eps=1e-9):
    match1 = total1 = match2 = total2 = 0
    c = r = 0
    for hyp, ref in zip(hyps, refs):
        h, rf = words(hyp), words(ref)
        c += len(h)
        r += len(rf)
        hg1, rg1 = grams(h, 1), grams(rf, 1)
        hg2, rg2 = grams(h, 2), grams(rf, 2)
        match1 += sum(min(cnt, rg1.get(g, 0)) for g, cnt in hg1.items())
        total1 += sum(hg1.values())
        match2 += sum(min(cnt, rg2.get(g, 0)) for g, cnt in hg2.items())
        total2 += sum(hg2.values())
    if c == 0:
        return 0.0
    p1 = match1 / total1 if total1 else 0.0
    p2 = match2 / total2 if total2 else 0.0
    p1 = p1 if p1 > 0 else eps
    p2 = p2 if p2 > 0 else eps
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp((math.log(p1) + math.log(p2)) / 2)


def oracle_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def oracle_rouge_l(hyps, refs, beta=1.2):
    scores = []
    for hyp, ref in zip(hyps, refs):
        h, rf = words(hyp), words(ref)
        lcs = oracle_lcs(h, rf)
        if lcs == 0:
            scores.append(0.0)
            continue
        p = lcs / len(h)
        r = lcs / len(rf)
        scores.append((1 + beta * beta) * p * r / (r + beta * beta * p))
    return sum(scores) / len(scores)


def oracle_distinct2(hyps):
    seen = set()
    total = 0
    for hyp in hyps:
        toks = words(hyp)
        for i in range(len(toks) - 1):
            seen.add((toks[i], toks[i + 1]))
            total += 1
    return len(seen) / total if total else 0.0


def oracle_cider(hyps, refs, max_n=4, sigma=6.0):
    n_docs = len(refs)
    ref_tok = [words(r) for r in refs]
    dfs = []
    for n in range(1, max_n + 1):
        df = Counter()
        for toks in ref_tok:
            for g in set(grams(toks, n)):
                df[g] += 1
        dfs.append(df)

    def tfidf(tokens, n):
        vec = {}
        for g, cnt in grams(tokens, n).items():
            vec[g] = cnt * math.log(n_docs / max(dfs[n - 1].get(g, 0), 1))
        return vec

    pair_scores = []
    for hyp, rtoks in zip(hyps, ref_tok):
        htoks = words(hyp)
        penalty = math.exp(-((len(htoks) - len(rtoks)) ** 2) / (2 * sigma * sigma))
        sims = []
        for n in range(1, max_n + 1):
            hv, rv = tfidf(htoks, n), tfidf(rtoks, n)
            dot = sum(v * rv[g] for g, v in hv.items() if g in rv)
            nh = math.sqrt(sum(v * v for v in hv.values()))
            nr = math.sqrt(sum(v * v for v in rv.values()))
            sims.append(dot / (nh * nr) if nh > 0 and nr > 0 else 0.0)
        pair_scores.append(10.0 * penalty * sum(sims) / max_n)
    return sum(pair_scores) / len(pair_scores)


def bt_log_likelihood(wins, strengths):
    ll = 0.0
    k = len(strengths)
    for i in range(k):
        for j in range(k):
            if i != j and wins[i][j] > 0:
                ll += wins[i][j] * math.log(strengths[i] / (strengths[i] + strengths[j]))
    return ll


def oracle_bt_bias_grid(pred, gold, k, prior=0.1, rounds=18, grid=9):
    """Coarse-to-fine grid search over the strength simplex (log scale).

    Halving the bracket each round keeps the true optimum inside it (grid
    spacing is a quarter of the next bracket), so the final log-coordinates
    are accurate to ~width/2^rounds.
    """
    wins = [[0.0] * k for _ in range(k)]
    for p, g in zip(pred, gold):
        if p != g:
            wins[p - 1][g - 1] += 1.0
    for i in range(k):
        for j in range(k):
            if i != j:
                wins[i][j] += prior

    width = 4.0
    best = None
    best_logs = [0.0] * k  # last coordinate pinned; normalization handles scale
    for _ in range(rounds):
        axes = [
            [best_logs[i] + width * (t / (grid - 1) - 0.5) for t in range(grid)]
            for i in range(k - 1)
        ]
        for combo in itertools.product(*axes):
            logs = list(combo) + [0.0]
            strengths = [math.exp(x) for x in logs]
            total = sum(strengths)
            strengths = [s / total for s in strengths]
            ll = bt_log_likelihood(wins, strengths)
            if best is None or ll > best:
                best = ll
                best_logs = logs
        width /= 2.0
    strengths = [math.exp(x) for x in best_logs]
    total = sum(strengths)
    strengths = [s / total for s in strengths]
    logs = [math.log(s) for s in strengths]
    mean = sum(logs) / k
    return math.sqrt(sum((x - mean) ** 2 for x in logs) / k)


def oracle_returns(reward_sequences, gamma):
    all_rewards = []
    value = 0.0
    for seq in reward_sequences:
        seq = list(seq)
        for t in range(len(seq)):
            g = 0.0
            for offset, r in enumerate(seq[t:]):
                g += (gamma**offset) * r
            value += g
        all_rewards.extend(seq)
    return sum(all_rewards) / len(all_rewards), value


def oracle_finite_horizon_q(succ_idx, succ_p, rewards, gamma, horizon):
    """Backward induction over `horizon` stages; approaches the discounted
    infinite-horizon fixed point as the horizon grows (gamma < 1)."""
    n_states, n_actions, _ = succ_idx.shape
    v = [0.0] * n_states
    q = [[0.0] * n_actions for _ in range(n_states)]
    for _ in range(horizon):
        q_new = [[0.0] * n_actions for _ in range(n_states)]
        for s in range(n_states):
            for a in range(n_actions):
                expected = 0.0
                for m in range(succ_idx.shape[2]):
                    p = float(succ_p[s, a, m])
                    if p > 0:
                        expected += p * v[int(succ_idx[s, a, m])]
                q_new[s][a] = float(rewards[s, a]) + gamma * expected
        q = q_new
        v = [max(row) for row in q]
    return q


def oracle_seq_q_all(scorer, state, catalog, vocab):
    """K-pass Q(s, .) of a SeqScorer: for each action, encode prompt + answer,
    run one full forward pass on the autodiff tape over the whole sequence
    (`forward`), and average the log-probabilities of the answer tokens."""
    values = []
    for action in catalog.ids:
        pair = encode_pair(state, action, catalog, vocab, scorer.window)
        rows = scorer.forward(pair.tokens)
        start, end = pair.action_span
        values.append(sum(float(rows[i, pair.tokens[i]]) for i in range(start, end)) / (end - start))
    return values
