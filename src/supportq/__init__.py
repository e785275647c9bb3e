"""supportq: Q-learning strategy planning for emotional-support conversations.

A trainable scorer reads a dialogue state rendered as a multi-choice
instruction and treats the log-probability of the appended answer, one
token, as Q(s, a); a DQN loop with replay sampling and a target network fits
it to Bellman targets under imitation or judge-distilled rewards.  A staged
synthetic environment with an exact dynamic-programming oracle makes the
whole pipeline verifiable end to end.
"""

from .core import (
    DEFAULT_EMOTIONS,
    DialogueState,
    Emotion,
    Episode,
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
from .encoding import (
    EncodedPair,
    Vocabulary,
    build_vocab,
    encode_pair,
    render_mcq,
)
from .env import (
    LatentState,
    StagedEnv,
    StagedEnvConfig,
    TabularMDP,
    collect_transitions,
    value_iteration,
)
from .ingest import (
    CorpusStats,
    corpus_stats,
    load_esconv,
    load_plain_dialogues,
    save_episodes,
    split_episodes,
)
from .metrics import (
    MetricReport,
    accuracy,
    avg_reward_value,
    bleu2,
    bt_bias,
    cider,
    confusion_matrix,
    distinct2,
    macro_f1,
    rouge_l,
    stage_upper_mass,
    transition_matrix,
)
from .qnet import (
    FeatureConfig,
    MlpConfig,
    MlpScorer,
    SeqConfig,
    SeqScorer,
    extract_features,
    load_scorer,
    save_scorer,
)
from .rewards import (
    SyntheticJudge,
    distill_rewards,
    imitation_rewards,
)
from .training import (
    Adam,
    TrainerConfig,
    TrainLog,
    fit,
    sync_target,
    td_target,
    train_step,
)

__version__ = "0.1.0"
