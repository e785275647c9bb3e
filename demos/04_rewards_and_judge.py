"""The two reward mechanisms: imitation and judge distillation.

Imitation treats every annotated action as worth +1 and pairs it with one
sampled wrong action at -1, exactly 1:1.  Distillation grades each reply with
a judge; the synthetic judge rewards stage-appropriate strategies and is
calibrated so demonstration corpora average about 3.67 with median 4.
"""

from collections import Counter

import numpy as np

from supportq import (
    StagedEnv,
    SyntheticJudge,
    default_catalog,
    derive_transitions,
    distill_rewards,
    imitation_rewards,
)

catalog = default_catalog()
env = StagedEnv()
episodes = env.demo_episodes(100, fidelity=0.65, seed=9)
transitions = [tr for ep in episodes for tr in derive_transitions(ep)]
print(f"{len(episodes)} demonstration episodes -> {len(transitions)} gold transitions")

imitated = imitation_rewards(transitions, catalog, seed=0)
rewards = Counter(t.reward for t in imitated)
print(f"imitation: {len(imitated)} transitions, reward counts {dict(rewards)}")
negatives = [t for t in imitated if t.reward == -1.0]
print("negatives never repeat the gold action:",
      all(n.action != g.action for n, g in zip(negatives, transitions)))

judge = SyntheticJudge(catalog=catalog, nominal_turns=env.config.horizon, seed=0)
distilled = distill_rewards(transitions, judge)
scores = np.array([t.reward for t in distilled])
hist = Counter(int(s) for s in scores)
print(f"\ndistillation: mean judge score {scores.mean():.3f}, median {np.median(scores):g}")
print("score histogram:")
for score in sorted(hist):
    print(f"  {score}: {'#' * (hist[score] // 8)} {hist[score]}")
