"""DQN training checked against an exact dynamic-programming oracle.

The staged environment's hidden state space is small enough to enumerate, so
value iteration gives the true optimal Q and policy.  A feature-MLP scorer
trained with the replay-sampling / target-network loop should agree with that
oracle on the states it visited.
"""

from supportq import (
    MlpConfig,
    MlpScorer,
    StagedEnv,
    StagedEnvConfig,
    TrainerConfig,
    collect_transitions,
    default_catalog,
    fit,
    value_iteration,
)

catalog = default_catalog()
config = StagedEnvConfig(seed=11)
env = StagedEnv(config, catalog=catalog)

mdp = env.to_tabular()
oracle = value_iteration(mdp, gamma=0.85)
print(f"tabular model: {mdp.n_states} states x {mdp.n_actions} actions")
print(f"optimal value at the opening states: {oracle.v.max():.4f} "
      f"(geometric series of matched rewards)")

rollout_env = StagedEnv(config, catalog=catalog)
transitions, latents = collect_transitions(rollout_env, 400, seed=0, with_latents=True)
scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
cfg = TrainerConfig(gamma=0.85, seed=0, epochs=4, learning_rate=3e-3)
log = fit(transitions, scorer, catalog, None, cfg)
print(f"\ntrained for {len(log)} steps; loss {log.losses[:20].mean():.4f} -> "
      f"{log.losses[-20:].mean():.4f}")

visited = {}
for (lat, _), tr in zip(latents, transitions):
    visited.setdefault(lat, tr.state)
agree = sum(
    scorer.select_strategy(s, catalog) == oracle.policy[mdp.index_of(lat)]
    for lat, s in visited.items()
)
print(f"greedy policy agrees with the oracle on {agree}/{len(visited)} visited states")

lat, state = next(iter(visited.items()))
print("\nexample state", tuple(lat), "learned vs optimal Q:")
learned = scorer.q_all(state, catalog)
for s in catalog:
    print(f"  ({s.id}) {s.abbreviation:<12} {learned[s.id - 1]:+.3f}  vs  "
          f"{oracle.q[mdp.index_of(lat), s.id - 1]:+.3f}")
print("(this short run learns the ordering first; magnitudes keep tightening "
      "with more episodes and epochs, as in the acceptance suite)")
