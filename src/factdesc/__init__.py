"""factdesc: synoptic entity descriptions synthesized from facts.

A knowledge-graph entity arrives as property-value facts; this package
trains and runs a small sequence model that writes the short textual
description ("street in elsloo", "painting by hendrick avercamp").
Facts are folded into embeddings by a positional encoder, a GRU decoder
attends over them step by step, and each emitted token is either copied
out of the selected fact or drawn from a small vocabulary softmax when
the mean-fact slot wins the attention.

The numeric core is self-contained: float64 tensors on numpy with a
reverse-mode tape (:mod:`factdesc.tensor`), checked against central
finite differences.  Evaluation ships BLEU, ROUGE-L, exact-match
METEOR, and CIDEr (:mod:`factdesc.metrics`).  The ``factdesc`` CLI
exposes train / generate / evaluate / align / attention / params.
"""

from .alignment import AlignedDescription, AlignedToken, Source, align_corpus, align_description
from .corpus import (
    Entity,
    Fact,
    STOPWORDS,
    Vocabulary,
    build_vocabulary,
    load_entities,
    tokenize,
)
from .decoder import (
    DecodePlan,
    DecoderParams,
    ModelDims,
    attention_keys,
    copy_logits,
    decoder_step,
    fact_attention,
    greedy_decode,
    vocab_logits,
)
from .encoder import encode_entities, encode_entity, positional_weights
from .metrics import EvalPair, MetricReport, bleu, cider, evaluate_corpus, meteor_exact, rouge_l
from .tensor import AdamState, Tape, Tensor, adam_step, backward, grad_check
from .training import (
    Checkpoint,
    TrainConfig,
    count_parameters,
    generate_description,
    load_checkpoint,
    save_checkpoint,
    step_loss,
    train,
)

__version__ = "0.1.0"
