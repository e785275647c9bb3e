"""Independent brute-force oracles the library metrics are checked against.

Everything here is written from the metric definitions with plain loops and
dictionaries, deliberately sharing no code with supportq.metrics.  Two
oracles check the `seq` scorer: `oracle_seq_q_all`, the slow path of its Q
kernel (a full forward pass per action), and `tape_seq_q`, the transformer
on the autodiff tape, whose gradients check the hand-written backward.
`tape_mlp_q` does the same for the `mlp` scorer: its net on the tape over
the (K, F) block of feature rows with each action's one-hot set, the form
the scorer's split first layer computes without building the block.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

import supportq.autodiff as ad
from supportq.encoding import encode_answer, encode_pair
from supportq.qnet import extract_features


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
    run one full forward pass over the whole sequence (`forward`), and average
    the log-probabilities of the answer tokens."""
    values = []
    for action in catalog.ids:
        pair = encode_pair(state, action, catalog, vocab, scorer.window)
        rows = scorer.forward(pair.tokens)
        start, end = pair.action_span
        values.append(sum(float(rows[i, pair.tokens[i]]) for i in range(start, end)) / (end - start))
    return values


def causal_mask(t, dtype):
    """Additive T x T mask: row i may attend to columns 0 .. i."""
    pos = np.arange(t)
    return np.where(pos[:, None] < pos, dtype(-1e30), dtype(0.0))


def tape_seq_q(scorer, state, catalog, vocab, pv):
    """Q(s, .) of a SeqScorer as a `Var` on the autodiff tape over the
    parameter `Var`s `pv`: one pass over BOS + prompt + " " with the additive
    causal mask, the last block, ln_f, head and log-softmax on the two rows
    that predict the answer.  `ad.backward` on it gives the reference
    gradients."""
    cfg = scorer.config
    pair = encode_pair(state, catalog.ids[0], catalog, vocab, scorer.window)
    tokens = pair.tokens[:-1]
    t, n_heads, dh = len(tokens), cfg.n_heads, cfg.d_model // cfg.n_heads
    split = lambda m: ad.swapaxes(ad.reshape(m, (m.shape[0], n_heads, dh)), 0, 1)
    x = ad.take_rows(pv["tok_emb"], tokens) + ad.take_rows(pv["pos_emb"], np.arange(t))
    mask = causal_mask(t, cfg.np_dtype)
    for i in range(cfg.n_layers):
        p = lambda n: pv[f"blocks.{i}.{n}"]
        h = ad.layer_norm(x, p("ln1.g"), p("ln1.b"))
        k = split(h @ p("attn.wk") + p("attn.bk"))
        v = split(h @ p("attn.wv") + p("attn.bv"))
        if i == cfg.n_layers - 1:
            last = np.arange(t - 2, t)
            x, h, mask = ad.take_rows(x, last), ad.take_rows(h, last), mask[last]
        q = split(h @ p("attn.wq") + p("attn.bq"))
        scores = q @ ad.swapaxes(k, 1, 2) * (1.0 / math.sqrt(dh)) + mask
        ctx = ad.swapaxes(ad.softmax(scores, axis=-1) @ v, 0, 1)
        x = x + (ad.reshape(ctx, (x.shape[0], cfg.d_model)) @ p("attn.wo") + p("attn.bo"))
        h2 = ad.layer_norm(x, p("ln2.g"), p("ln2.b"))
        x = x + (ad.gelu(h2 @ p("mlp.w1") + p("mlp.b1")) @ p("mlp.w2") + p("mlp.b2"))
    x = ad.layer_norm(x, pv["ln_f.g"], pv["ln_f.b"])
    logp = ad.log_softmax(x @ pv["head.w"] + pv["head.b"], axis=-1)
    k = len(catalog)
    words = np.array([encode_answer(a, catalog, vocab)[1] for a in catalog.ids])
    space = ad.take_pairs(logp, np.zeros(k, dtype=int), np.full(k, pair.tokens[pair.action_span[0]]))
    return (space + ad.take_pairs(logp, np.ones(k, dtype=int), words)) * 0.5


def feature_block(state, catalog, fc):
    """(K, F) block whose row a - 1 is the state's feature row with action
    a's one-hot set."""
    row = extract_features(state, catalog, fc)
    return row + np.eye(len(catalog), len(row), len(fc.emotions))


def tape_mlp_q(scorer, state, catalog, vocab, pv):
    """Q(s, .) of an MlpScorer as a `Var` on the autodiff tape over the
    parameter `Var`s `pv`: the tanh net over `feature_block`, one row per
    action.  `vocab` is unused; the signature is `tape_seq_q`'s."""
    x = feature_block(state, catalog, scorer.config.features)
    n_hidden = len(scorer.config.hidden)
    for i in range(n_hidden + 1):
        x = x @ pv[f"layers.{i}.w"] + pv[f"layers.{i}.b"]
        if i < n_hidden:
            x = ad.tanh(x)
    return ad.reshape(x, (len(catalog),))


def tape_grads(out, pv):
    """Gradient of the scalar `Var` `out` with respect to every parameter `Var` in `pv`."""
    ad.backward(out)
    return {n: v.grad if v.grad is not None else np.zeros_like(v.data) for n, v in pv.items()}


def tape_loss_grads(tape_q, scorer, items, catalog, vocab):
    """Mean squared TD error of `items` and its gradient, on the autodiff
    tape; `tape_q(scorer, state, catalog, vocab, pv)` is Q(s, .) as a `Var`."""
    pv = {n: ad.Var(a) for n, a in scorer.params.items()}
    qs = {}
    total = None
    for state, action, target in items:
        if state not in qs:
            qs[state] = tape_q(scorer, state, catalog, vocab, pv)
        se = (ad.take_rows(qs[state], action - 1) - target) ** 2.0
        total = se if total is None else total + se
    loss = total * (1.0 / len(items))
    return float(loss.data), tape_grads(loss, pv)


def max_relative_error(grads, reference):
    """Largest |difference| over all parameters, relative to the largest
    |reference gradient|: a gradient that is zero in exact arithmetic (attn.bk,
    because q . b_k shifts a row of scores equally) is compared as a zero."""
    assert set(grads) == set(reference)
    scale = max(float(np.abs(g).max()) for g in reference.values())
    return max(float(np.abs(grads[n] - reference[n]).max()) for n in reference) / scale
