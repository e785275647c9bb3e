"""From a raw conversation to MDP transitions and a scoring prompt.

A support conversation becomes a sequence of decision points: each annotated
supporter turn is one (state, action) pair, and consecutive pairs chain into
transitions.  The state is then rendered as a multi-choice instruction the
scorer reads.
"""

from supportq import (
    Emotion,
    Episode,
    Speaker,
    Turn,
    build_state,
    build_vocab,
    default_catalog,
    derive_transitions,
    encode_pair,
    render_mcq,
)

catalog = default_catalog()
print("The action space (strategy id, name, stage):")
for s in catalog:
    print(f"  {s.id}  {s.name:<28} stage {s.stage.value}")

episode = Episode(
    description="I hate my job but I am scared to quit and seek a new career.",
    emotion=Emotion("anxiety", 5),
    session_id="demo",
    turns=(
        Turn(Speaker.SEEKER, "I dread going in every morning."),
        Turn(Speaker.SUPPORTER, "What part of the day feels worst?",
             strategy=catalog.by_name("Question").id),
        Turn(Speaker.SEEKER, "Seriously! What I'm scared of now is how to secure another job."),
        Turn(Speaker.SUPPORTER, "I can feel your pain just by chatting with you.",
             strategy=catalog.by_name("Reflection of Feelings").id),
    ),
)

transitions = derive_transitions(episode)
print(f"\n{len(transitions)} transitions; the last is terminal={transitions[-1].terminal}")
for i, tr in enumerate(transitions):
    print(f"  t={i}: action={tr.action} ({catalog.by_id(tr.action).abbreviation}), "
          f"history={len(tr.state.history)} turns")

state = build_state(episode, 1)
prompt = render_mcq(state, catalog)
print("\nThe scoring prompt for the second decision point:")
print("-" * 72)
print(prompt)
print("-" * 72)

# the tokenizer is a word vocabulary with byte fallback: total and lossless
vocab = build_vocab([prompt], max_size=1024)
pair = encode_pair(state, action=3, catalog=catalog, vocab=vocab)
start, end = pair.action_span
print(f"\nEncoded to {len(pair.tokens)} tokens; the answer ' (3)' is the one token at "
      f"{pair.action_span}, the word {vocab.decode(pair.tokens[start:end])!r}, which carries its space")
assert vocab.decode(vocab.encode(prompt)) == prompt
