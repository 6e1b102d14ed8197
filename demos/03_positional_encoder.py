"""How fact phrases become fixed-width embeddings.

Run:  python3 demos/03_positional_encoder.py
"""

import numpy as np

from factdesc import corpus
from factdesc.encoder import encode_entity, positional_weights
from factdesc.tensor import Tensor
from factdesc.training import TrainConfig

np.set_printoptions(precision=3, suppress=True)

# The positional weight for embedding dimension k and phrase position j
# is (1 - j/J) - (k/d)(1 - 2j/J).  Early positions load the low
# dimensions, late positions the high ones, and the middle column of an
# even-length phrase is exactly 0.5 everywhere.
print("positional weights, phrase length 4, dim 6 (rows = dims):")
print(positional_weights(4, 6))

# A fact's phrase is its property name followed by its value, so the
# value words (the copyable ones) always sit in the late positions:
# after the positional weighting they dominate the high embedding
# dimensions instead of being averaged away.
vocab = corpus.Vocabulary(["<UNK>", "<SOS>", "<EOS>", "instance", "of",
                           "street", "location", "elsloo"])
d = 6
table = Tensor(np.zeros((len(vocab), d)))
for i, word in enumerate(vocab.words[3:]):
    table.data[vocab.word_index(word), i + 1] = 1.0  # one indicator dim per word

entity = corpus.Entity("Q19345316", [
    corpus.Fact.build("instance of", "street"),
    corpus.Fact.build("location", "Elsloo"),
], None)

for mode in ("positional", "mean_pool"):
    enc = encode_entity(entity, table, vocab, TrainConfig(encoding=mode))
    print(f"\n{mode} encoding (rows: fact 0, fact 1, mean fact):")
    print(enc.embeddings.data)

# The mean fact (slot N) is the elementwise mean of the fact
# embeddings; during decoding, selecting it routes generation to the
# vocabulary softmax instead of the copy head.
