"""ddikit: drug-drug interaction event prediction from SMILES pairs plus
knowledge-graph embeddings, built on a small numpy autodiff core."""

__version__ = "0.1.0"

from .autodiff import Parameter, Tape, Tensor, backward, no_grad
from .checkpoint import (CheckpointError, config_fingerprint, load_checkpoint,
                         read_checkpoint, save_checkpoint)
from .data import (DataError, DdiEvent, DrugRecord, SplitBundle, kfold,
                   load_dataset, make_inductive_splits, seqlen_bins,
                   sts_series, stratified_keep, verify_split)
from .kg import (EmbeddingTable, EntityIndex, PairEmbedder, TransEConfig,
                 TripleError, load_table, load_triples, save_table, train_transe,
                 transe_score)
from .metrics import (ConfusionMatrix, MetricReport, aggregate, aupr,
                      confusion, evaluate, f1_per_class, mcc, roc_auc)
from .model import (DdiModel, ModelConfig, MultiHeadAttention, PretrainModel,
                    transfer_encoder_weights)
from .optim import AdamState, adam_step, zero_grads
from .smiles import (MASK, PAD, SEP, UNK, MolecularGraph, SmilesError,
                     TokenSequence, Vocabulary, VocabularyError, canonical_smiles,
                     encode_pair, parse_smiles, randomize_smiles, tokenize,
                     write_smiles)
from .training import (FinetuneConfig, PretrainConfig, finetune, mask_sequence,
                       mlm_pretrain, predict_scores)
