"""Inspect which fact each decoding step attends to.

Memorizes a small corpus, then prints the per-step attention matrix for
one entity: rows are emitted tokens, columns the entity's facts plus
the MEAN slot.  A healthy model puts each copied token's mass on the
fact it came from and moves to MEAN for function words and <EOS>.

Takes about 3 s on one core.
Run:  python3 demos/06_attention_matrix.py
"""

from factdesc import cli, corpus, training
from factdesc.training import TrainConfig

config = TrainConfig(epochs=80, batch_size=5, max_facts=12, max_factual_words=8,
                     seed=4)
entities = corpus.load_entities("data/overfit50.jsonl",
                                config.max_facts, config.max_factual_words)[:40]
print(f"memorizing {len(entities)} entities ...")
checkpoint = training.train(entities, [], config)

entity = entities[0]
print("\nentity:", entity.id, "-", " ".join(entity.description_tokens), "\n")
labels, rows = cli.emit_attention(checkpoint, entity)

print(" " * 12 + "".join(f"{label[:20]:>22s}" for label in labels))
for token, alpha in rows:
    print(f"{token:>10s}  " + "".join(f"{a:22.3f}" for a in alpha))

print("\neach row is a distribution over the entity's slots; the TSV twin of "
      "this table comes from the `factdesc attention` subcommand.")
