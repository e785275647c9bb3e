"""Q values from a causal sequence scorer.

Q(s, a) is the log-probability the model assigns to the appended answer
" (a)", one token.  Untrained values hover near -ln(vocabulary size); training
pulls the right answers up.  The demo also shows two structural facts: adding
a constant to every output logit changes nothing, and the argmax choice is
invariant under any strictly increasing transform.
"""

import numpy as np

from supportq import (
    SeqConfig,
    SeqScorer,
    StagedEnv,
    build_vocab,
    default_catalog,
    render_mcq,
)

catalog = default_catalog()
env = StagedEnv()
state = env.reset(seed=7)
vocab = build_vocab([render_mcq(state, catalog)], max_size=1024)

scorer = SeqScorer(SeqConfig(vocab_size=vocab.size, d_model=32, n_layers=2, n_ctx=1024), seed=0)
qs = scorer.q_all(state, catalog, vocab)
print(f"Vocabulary size {vocab.size}, so a blind scorer sits near -ln(V) = {-np.log(vocab.size):.3f}")
print("Q per strategy (untrained):")
for s, q in zip(catalog, qs):
    print(f"  ({s.id}) {s.abbreviation:<12} {q:+.4f}")
choice = scorer.select_strategy(state, catalog, vocab)
print(f"argmax choice: ({choice}) {catalog.by_id(choice).name}")

shifted = scorer.clone()
shifted.params["head.b"] += 123.0
print("\nuniform logit shift moves no Q value:",
      np.allclose(shifted.q_all(state, catalog, vocab), qs, atol=1e-12))

monotone = np.tanh(qs * 0.5) * 3 + 1
print("strictly increasing transform keeps the argmax:",
      int(np.argmax(monotone)) + 1 == choice)

grads = scorer.grad_q(state, choice, catalog, vocab)
total = sum(float(np.abs(g).sum()) for g in grads.values())
print(f"\nanalytic gradient reaches every parameter: total |grad| mass {total:.3f} "
      f"across {len(grads)} tensors")
