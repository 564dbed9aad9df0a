"""Response ranking for information-seeking conversations.

Deep interaction-matching networks over dialog contexts and candidate
responses, optionally enriched with external knowledge via feedback-based
response expansion or QA correspondence statistics, plus the BM25
retrieval machinery, pairwise training loop and ranking metrics around
them.
"""

from .corpus import DialogExample, QAPair, build_candidates, load_dataset, load_qa_pairs
from .errors import ConfigError, ConvmatchError, DataError, NumericError, ParseError
from .knowledge import (FeedbackModel, KnowledgeSource, expand_response,
                        feedback_language_model, ppmi_matrix, retrieve_qa_pairs)
from .metrics import (MetricsReport, RankedLabels, average_precision,
                      evaluate_rankings, recall_at_k)
from .model import (ConvLayerConfig, ModelConfig, ModelParams, load_checkpoint,
                    prepare_example, rank, save_checkpoint)
from .retrieval import (InvertedIndex, bm25_rank_responses, bm25_score, build_index,
                        load_index, save_index, search)
from .text import (Tokenizer, Vocabulary, build_vocab, encode, load_vocab, save_vocab,
                   tokenize)
from .training import AdamState, TrainConfig, adam_step, hinge_loss, make_triples, train

__version__ = "0.1.0"
