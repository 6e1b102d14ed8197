"""Train on the bundled sample corpus and decode held-out entities.

Takes about 10 s on one core (12 epochs over 1,000 entities).
Run:  python3 demos/04_train_and_generate.py
"""

import numpy as np

from factdesc import corpus, training
from factdesc.training import TrainConfig

# The bundled corpus is synthetic but Wikidata-flavored; descriptions
# mix rare copyable names with frequent template words.
config = TrainConfig(epochs=12, batch_size=16, max_facts=12, max_factual_words=8,
                     seed=42)
train_split = corpus.load_entities("data/sample1k/train.jsonl",
                                   config.max_facts, config.max_factual_words)
dev_split = corpus.load_entities("data/sample1k/dev.jsonl",
                                 config.max_facts, config.max_factual_words)
print(f"training on {len(train_split)} entities, selecting by dev BLEU-4 ...")

checkpoint = training.train(train_split, dev_split, config)
meta = checkpoint.meta
print(f"\nbest dev BLEU-4 {meta['dev_bleu4']:.1f} at epoch {meta['epoch']}")
print("per-epoch loss:", " ".join(f"{v:.1f}" for v in meta["loss_history"]))

# Held-out entities: names the model never saw can still come out right
# because the copy head points into the entity's own facts.
print("\ngreedy decodes on dev entities:")
for entity in dev_split[:10]:
    out = training.generate_description(checkpoint, entity)
    print(f"  ref: {' '.join(entity.description_tokens):55s} | out: {' '.join(out)}")

# Checkpoints are a single binary file: float32 payload plus a JSON
# manifest embedding the config and vocabulary.
training.save_checkpoint(checkpoint, "/tmp/factdesc-demo.fks")
again = training.load_checkpoint("/tmp/factdesc-demo.fks")
print("\ncheckpoint round trip ok:",
      all(np.allclose(a.data, b.data, atol=1e-7)
          for (_, a), (_, b) in zip(checkpoint.params.named_tensors(),
                                    again.params.named_tensors())))
