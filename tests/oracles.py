"""Independent brute-force oracles the library metrics are checked against.

Everything here is written from the metric definitions with plain loops and
dictionaries, deliberately sharing no code with supportq.metrics.  The
`seq` scorer is checked against `dense_hidden`, its forward as it was before
attention ran in row tiles (the full score square with the future half
overwritten), `dense_forward` and `dense_seq_q` on top of it,
`oracle_seq_q_all`, the slow path of its Q kernel (a full dense forward pass
per action), and `tape_seq_q`, the transformer on the autodiff tape, whose
gradients check the hand-written backward.
`tape_mlp_q` does the same for the `mlp` scorer: its net on the tape over
the (K, F) block of feature rows with each action's one-hot set, the form
the scorer's split first layer computes without building the block.

The `per_pair_*` text metrics are the slow reference path of the library's
text metrics: they re-tokenise and score every (hypothesis, reference) pair
in input order, with the library's own operations in the library's order,
so the library, which scores each distinct pair once, must equal them bit
for bit.

`rescan_judge_score` is the slow reference path of `SyntheticJudge.score`:
it rescans the history for the supporter turns and asks the catalog for
each stage on every call.

`rescan_build_state` is `build_state` as it was before transitions were
derived in one walk over an episode: it rescans the turns for the supporter
turns, the seeker query and the emotion on every call.
`per_state_eval_predictions` is eval's decision loop as it was before eval
decided its test set in one batch: one `select_strategy` call per state.

`ChoiceDrawEnv` is the slow reference path of `StagedEnv`'s sampling: every
random choice is a `Generator.choice` call, and every state is rebuilt from
a history list, so the environment, which draws one uniform through a CDF
built once and keeps the state it returned, must give equal episodes.

`hand_simulate_rows` is `supportq simulate` as it was before it ran on
`env.rollouts`: its own episode loop per row over a stage-match env, and a
separate `SyntheticJudge` scoring every step, so the command, which reads the
judge env's own rewards, must give equal rows and transition counts.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

import supportq.autodiff as ad
from supportq.core import DialogueState, Emotion, Episode, Speaker, Turn, derive_transitions
from supportq.encoding import encode_answer, encode_pair
from supportq.env import (
    DESCRIPTION_TEMPLATE,
    EpisodeFinished,
    LatentState,
    StagedEnv,
    StagedEnvConfig,
    response_template,
)
from supportq.metrics import avg_reward_value, stage_upper_mass, transition_matrix
from supportq.rewards import SyntheticJudge, _hash_unit
from supportq.qnet import extract_features
from supportq.qnet.seq import _GELU_C as SEQ_GELU_C
from supportq.qnet.seq import _MASKED as SEQ_MASKED
from supportq.qnet.seq import _layer_norm as seq_layer_norm


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


def ngram_counts(tokens, n):
    return Counter(grams(tokens, n))


def per_pair_bleu2(hyps, refs, eps=1e-9):
    matches = [0, 0]
    totals = [0, 0]
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        h, r = words(hyp), words(ref)
        hyp_len += len(h)
        ref_len += len(r)
        for n in (1, 2):
            hc, rc = ngram_counts(h, n), ngram_counts(r, n)
            matches[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
            totals[n - 1] += sum(hc.values())
    if hyp_len == 0:
        return 0.0
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    precisions = [p if p > 0.0 else eps for p in precisions]
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(0.5 * (math.log(precisions[0]) + math.log(precisions[1])))


def per_pair_rouge_l(hyps, refs, beta=1.2):
    scores = []
    for hyp, ref in zip(hyps, refs):
        h, r = words(hyp), words(ref)
        lcs = oracle_lcs(h, r)
        if lcs == 0 or not h or not r:
            scores.append(0.0)
            continue
        precision = lcs / len(h)
        recall = lcs / len(r)
        scores.append((1 + beta**2) * precision * recall / (recall + beta**2 * precision))
    return float(np.mean(scores))


def per_pair_distinct2(hyps):
    total = 0
    seen = set()
    for hyp in hyps:
        toks = words(hyp)
        for i in range(len(toks) - 1):
            seen.add((toks[i], toks[i + 1]))
            total += 1
    return len(seen) / total if total else 0.0


def per_pair_cider(hyps, refs, max_n=4, sigma=6.0):
    n_docs = len(refs)
    doc_freq = [Counter() for _ in range(max_n)]
    ref_tokens = [words(r) for r in refs]
    for toks in ref_tokens:
        for n in range(1, max_n + 1):
            for gram in set(ngram_counts(toks, n)):
                doc_freq[n - 1][gram] += 1

    def vector(tokens, n):
        counts = ngram_counts(tokens, n)
        df = doc_freq[n - 1]
        return {g: c * math.log(n_docs / max(df[g], 1)) for g, c in counts.items()}

    scores = []
    for hyp, r_toks in zip(hyps, ref_tokens):
        h_toks = words(hyp)
        penalty = math.exp(-((len(h_toks) - len(r_toks)) ** 2) / (2 * sigma**2))
        sims = []
        for n in range(1, max_n + 1):
            hv = vector(h_toks, n)
            rv = vector(r_toks, n)
            dot = sum(w * rv[g] for g, w in hv.items() if g in rv)
            norm_h = math.sqrt(sum(w * w for w in hv.values()))
            norm_r = math.sqrt(sum(w * w for w in rv.values()))
            sims.append(dot / (norm_h * norm_r) if norm_h > 0 and norm_r > 0 else 0.0)
        scores.append(10.0 * penalty * float(np.mean(sims)))
    return float(np.mean(scores))


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


def dense_hidden(scorer, tokens, n_rows, cache=None):
    """The dense reference of `SeqScorer._hidden`: every block scores the
    full T x T square at once and writes `_MASKED` over the future half.
    Final hidden rows, before ln_f, of the last `n_rows` positions; a `cache`
    list receives each block's activations, as the scorer once kept them."""
    cfg, t = scorer.config, len(tokens)
    if t > cfg.n_ctx:
        raise ValueError(f"sequence length {t} exceeds context size {cfg.n_ctx}")
    if tokens.max() >= cfg.vocab_size or tokens.min() < 0:
        raise ValueError("token id outside the vocabulary")
    params, n_heads, dh = scorer.params, cfg.n_heads, cfg.d_model // cfg.n_heads
    split = lambda m: m.reshape(m.shape[0], n_heads, dh).swapaxes(0, 1)
    pos = np.arange(t)
    x = params["tok_emb"][tokens] + params["pos_emb"][pos]
    future = pos[:, None] < pos
    for i in range(cfg.n_layers):
        p = lambda n: params[f"blocks.{i}.{n}"]
        h, xhat1, inv1 = seq_layer_norm(x, p("ln1.g"), p("ln1.b"))
        k = split(h @ p("attn.wk") + p("attn.bk"))
        v = split(h @ p("attn.wv") + p("attn.bv"))
        rows = h
        if i == cfg.n_layers - 1:
            last = np.arange(t - n_rows, t)
            x, rows, future = x[last], h[last], future[last]
        q = split(rows @ p("attn.wq") + p("attn.bq"))
        att = q @ k.swapaxes(1, 2)
        att *= 1.0 / math.sqrt(dh)
        np.copyto(att, SEQ_MASKED, where=future)
        att -= att.max(axis=-1, keepdims=True)
        np.exp(att, out=att)
        att /= att.sum(axis=-1, keepdims=True)
        ctx = (att @ v).swapaxes(0, 1).reshape(x.shape[0], cfg.d_model)
        x = x + (ctx @ p("attn.wo") + p("attn.bo"))
        h2, xhat2, inv2 = seq_layer_norm(x, p("ln2.g"), p("ln2.b"))
        pre = h2 @ p("mlp.w1") + p("mlp.b1")
        th = np.tanh((pre + pre * pre * pre * 0.044715) * SEQ_GELU_C)
        x = x + ((pre * (th + 1.0) * 0.5) @ p("mlp.w2") + p("mlp.b2"))
        if cache is not None:
            cache.append(dict(
                xhat1=xhat1, inv1=inv1, h=h, q=q, k=k, v=v, att=att, ctx=ctx,
                xhat2=xhat2, inv2=inv2, h2=h2, pre=pre, th=th,
            ))
    return x


def dense_forward(scorer, tokens):
    """Per-position log-probabilities of a SeqScorer over `tokens`, shape
    (T, V), from `dense_hidden` over every row.  Row i is the distribution
    over token i conditioned on tokens < i; row 0, which has nothing to
    condition on, is the uniform -ln(V)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    logp, _ = scorer._head(dense_hidden(scorer, tokens, len(tokens)))
    out = np.empty((len(tokens), scorer.config.vocab_size), dtype=scorer.config.np_dtype)
    out[0] = -math.log(scorer.config.vocab_size)
    out[1:] = logp[:-1]
    return out


def dense_seq_q(scorer, tokens, catalog, vocab):
    """Q(s, .) from one dense pass over the code `tokens` of s, as
    `SeqScorer._q` computes it from the tiled pass."""
    words = np.array([encode_answer(a, catalog, vocab)[0] for a in catalog.ids])
    logp, _ = scorer._head(dense_hidden(scorer, tokens, 1))
    return logp[0, words]


def oracle_seq_q_all(scorer, state, catalog, vocab):
    """K-pass Q(s, .) of a SeqScorer: for each action, encode prompt + answer,
    run one full dense forward pass over the whole sequence (`dense_forward`),
    and read the log-probability of the one answer token."""
    values = []
    for action in catalog.ids:
        pair = encode_pair(state, action, catalog, vocab, scorer.window)
        rows = dense_forward(scorer, pair.tokens)
        start, end = pair.action_span
        assert end - start == 1
        values.append(float(rows[start, pair.tokens[start]]))
    return values


def causal_mask(t, dtype):
    """Additive T x T mask: row i may attend to columns 0 .. i."""
    pos = np.arange(t)
    return np.where(pos[:, None] < pos, dtype(-1e30), dtype(0.0))


def tape_seq_q(scorer, state, catalog, vocab, pv):
    """Q(s, .) of a SeqScorer as a `Var` on the autodiff tape over the
    parameter `Var`s `pv`: one pass over BOS + prompt with the additive
    causal mask, the last block, ln_f, head and log-softmax on the one row
    that predicts the answer.  `ad.backward` on it gives the reference
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
            last = np.arange(t - 1, t)
            x, h, mask = ad.take_rows(x, last), ad.take_rows(h, last), mask[last]
        q = split(h @ p("attn.wq") + p("attn.bq"))
        scores = q @ ad.swapaxes(k, 1, 2) * (1.0 / math.sqrt(dh)) + mask
        ctx = ad.swapaxes(ad.softmax(scores, axis=-1) @ v, 0, 1)
        x = x + (ad.reshape(ctx, (x.shape[0], cfg.d_model)) @ p("attn.wo") + p("attn.bo"))
        h2 = ad.layer_norm(x, p("ln2.g"), p("ln2.b"))
        x = x + (ad.gelu(h2 @ p("mlp.w1") + p("mlp.b1")) @ p("mlp.w2") + p("mlp.b2"))
    x = ad.layer_norm(x, pv["ln_f.g"], pv["ln_f.b"])
    logp = ad.log_softmax(x @ pv["head.w"] + pv["head.b"], axis=-1)
    words = np.array([encode_answer(a, catalog, vocab)[0] for a in catalog.ids])
    return ad.take_pairs(logp, np.zeros(len(catalog), dtype=int), words)


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


def rescan_judge_score(judge, state, action, response):
    """`SyntheticJudge.score` by its definition: count the supporter turns
    and look up both strategies' stages in the catalog on every call."""
    supporter_turns = sum(1 for t in state.history if t.speaker is Speaker.SUPPORTER)
    expected = 1 + min(2, int(3 * min(supporter_turns / judge.nominal_turns, 0.999)))
    rank = judge.catalog.stage_of(action).rank
    value = 3
    if rank is not None and rank == expected:
        value += 1
    prev = state.last_supporter_strategy()
    prev_rank = None if prev is None else judge.catalog.stage_of(prev).rank
    if rank is not None and prev_rank is not None:
        if rank - prev_rank == 1:
            value += 1
        elif prev_rank - rank >= 2:
            value -= 1
    u = _hash_unit(judge.seed, state.query, len(state.history), action, response)
    if u < judge.noise_prob / 2:
        value += 1
    elif u < judge.noise_prob:
        value -= 1
    lo, hi = judge.scale
    return max(lo, min(hi, value))


def rescan_build_state(episode, t):
    """The state before the t-th supporter turn, by rescanning the turns."""
    sup = [i for i, turn in enumerate(episode.turns) if turn.speaker is Speaker.SUPPORTER]
    j = sup[t]
    q = max(i for i in range(j) if episode.turns[i].speaker is Speaker.SEEKER)
    emotion = episode.emotion
    for i in range(q, -1, -1):
        turn = episode.turns[i]
        if turn.speaker is Speaker.SEEKER and turn.emotion is not None:
            emotion = turn.emotion
            break
    return DialogueState(
        description=episode.description,
        emotion=emotion if emotion is not None else Emotion("unknown"),
        history=episode.turns[:q],
        query=episode.turns[q].text,
    )


def per_state_eval_predictions(scorer, episodes, catalog, vocab):
    """Eval's predictions, one `select_strategy` call per derived state."""
    return [
        scorer.select_strategy(tr.state, catalog, vocab) for ep in episodes for tr in derive_transitions(ep)
    ]


class ChoiceDrawEnv(StagedEnv):
    """`StagedEnv` drawing through `Generator.choice`: `choice(n, p=...)` in
    reset and step, `choice(list)` in demo_episodes, each state rebuilt."""

    def __init__(self, config, catalog=None):
        super().__init__(config, catalog)
        weights = np.array([w for _, w in config.emotion_weights], dtype=np.float64)
        self._probs = weights / weights.sum()

    def state(self):
        return DialogueState(self._description, self._emotion, tuple(self._history), self._query)

    def reset(self, seed=None):
        self._rng = np.random.default_rng(seed) if seed is not None else self._master
        label = self._labels[int(self._rng.choice(len(self._labels), p=self._probs))]
        intensity = int(self._rng.integers(1, 6))
        self._latent = LatentState(progress=0, stage=1, emotion=label, last_slot=0)
        self._emotion = Emotion(label, intensity)
        self._description = DESCRIPTION_TEMPLATE.format(label=label)
        self._history = []
        self._query = self._query_text(self._latent)
        self._done = False
        self.last_response = None
        return self.state()

    def step(self, action):
        if self._done or self._latent is None:
            raise EpisodeFinished("call reset() before stepping")
        latent = self._latent
        state = self.state()
        response = response_template(self.catalog.by_id(action).name)
        reward = self._reward(latent, action, state, response)
        self.last_response = response
        successors = self._successors(latent, action)
        self._history.append(Turn(Speaker.SEEKER, self._query))
        self._history.append(Turn(Speaker.SUPPORTER, response, strategy=action))
        if not successors:
            self._done = True
            self._latent = LatentState(
                self.config.horizon, latent.stage, latent.emotion, self._last_slot(action)
            )
            return self.state(), reward, True
        probs = np.array([p for _, p in successors])
        pick = int(self._rng.choice(len(successors), p=probs))
        self._latent = successors[pick][0]
        self._query = self._query_text(self._latent)
        return self.state(), reward, False

    def demo_episodes(self, n, fidelity=0.65, seed=0):
        rng = np.random.default_rng(seed)
        by_stage = {1: [], 2: [], 3: []}
        for s in self.catalog:
            if s.stage.rank is not None:
                by_stage[s.stage.rank].append(s.id)
        episodes = []
        for i in range(n):
            state = self.reset(seed=int(rng.integers(2**31)))
            turns = []
            done = False
            while not done:
                if rng.random() < fidelity:
                    action = int(rng.choice(by_stage[self.latent.stage]))
                else:
                    action = int(rng.integers(1, len(self.catalog) + 1))
                turns.append(Turn(Speaker.SEEKER, state.query, emotion=None if turns else state.emotion))
                state, _, done = self.step(action)
                turns.append(Turn(Speaker.SUPPORTER, self.last_response or "", strategy=action))
            episodes.append(
                Episode(
                    description=state.description,
                    turns=tuple(turns),
                    session_id=f"demo-{i:05d}",
                    emotion=state.emotion,
                )
            )
        return episodes


def hand_simulate_rows(scorer, catalog, vocab, n_episodes, horizon, seed, gamma):
    """simulate.json's rows and the greedy row's transition counts, each row
    rolled by hand with its own env and `default_rng(seed + 17)`."""
    judge = SyntheticJudge(catalog=catalog, nominal_turns=horizon, seed=seed)

    def run(policy_name, greedy):
        env = StagedEnv(StagedEnvConfig(horizon=horizon, seed=seed), catalog=catalog)
        rng = np.random.default_rng(seed + 17)
        sequences, rewards, model_q = [], [], []
        for _ in range(n_episodes):
            state = env.reset(seed=int(rng.integers(2**31)))
            done = False
            actions, scores = [], []
            while not done:
                if greedy:
                    qs = scorer.q_all(state, catalog, vocab)
                    action = int(np.argmax(qs)) + 1
                    model_q.append(float(qs[action - 1]))
                else:
                    action = int(rng.integers(1, len(catalog) + 1))
                response = response_template(catalog.by_id(action).name)
                scores.append(float(judge.score(state, action, response)))
                state, _, done = env.step(action)
                actions.append(action)
            sequences.append(actions)
            rewards.append(scores)
        avg_r, avg_v = avg_reward_value(rewards, gamma)
        matrix = transition_matrix(sequences, len(catalog))
        row = {
            "policy": policy_name,
            "episodes": n_episodes,
            "avg_reward": avg_r,
            "avg_value": avg_v,
            "stage_upper_mass": stage_upper_mass(matrix, catalog),
        }
        if model_q:
            row["mean_model_q"] = float(np.mean(model_q))
        return row, matrix

    greedy_row, greedy_matrix = run("greedy", True)
    random_row, _ = run("random", False)
    return [greedy_row, random_row], greedy_matrix
