"""Model assembly: interaction stacks -> CNN -> context encoder -> score.

Three variants share one architecture. "dmn" matches raw responses against
the context, "dmn-prf" matches feedback-expanded responses, and "dmn-kd"
adds a third input channel of correspondence statistics per
(utterance, response) pair. Channel subsets and the interaction function
are configurable for ablations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import nn
from .corpus import DialogExample, window_context
from .errors import ConfigError, DataError, ParseError
from .fileio import read_lines
from .knowledge import KnowledgeSource, ppmi_matrix
from .nn import GRUParams, MLPParams, Tensor
from .text import PAD_ID, Vocabulary, encode

VARIANTS = ("dmn", "dmn-prf", "dmn-kd")
CHANNELS = ("m1", "m2", "m3")
INTERACTIONS = ("dot", "cosine", "bilinear")

_CONFIG_VERSION = 1


@dataclass
class ConvLayerConfig:
    """One convolution + pooling block.

    Kernels are never flipped and partial pool windows are always kept; the
    config JSON still records both facts for readers of the v1 format.
    """

    kernel_shape: tuple = (3, 3)
    kernel_count: int = 8
    pool_shape: tuple = (3, 3)
    padding: int = 0

    def validate(self) -> None:
        for name in ("kernel_shape", "pool_shape"):
            value = getattr(self, name)
            if len(value) != 2 or not all(_is_int(v) and v >= 1 for v in value):
                raise ConfigError(f"{name} must be two integers >= 1, got {value}")
        for name, least in (("kernel_count", 1), ("padding", 0)):
            if not _is_int(getattr(self, name)) or getattr(self, name) < least:
                raise ConfigError(f"{name} must be an integer >= {least}, "
                                  f"got {getattr(self, name)!r}")


def _is_int(value) -> bool:
    # a float size would pass the range checks and fail later in numpy
    return isinstance(value, (int, np.integer))


@dataclass
class ModelConfig:
    """Architecture and variant settings for the response ranker."""

    variant: str = "dmn"
    channels: tuple = ("m1", "m2")
    interaction: str = "dot"
    l_u: int = 50
    l_r: int = 50
    c: int = 10
    embed_dim: int = 200
    gru_hidden: int = 200
    conv: ConvLayerConfig = field(default_factory=ConvLayerConfig)
    conv_blocks: int = 1
    mlp_hidden: int = 50
    dropout: float = 0.3
    include_current_turn: bool = True
    truncate: str = "head"

    def __post_init__(self):
        self.channels = tuple(self.channels)

    @property
    def context_turns(self) -> int:
        """Last turns of a dialog that prepare_example reads: the c it feeds,
        plus the current turn it drops when include_current_turn is false."""
        return self.c + (not self.include_current_turn)

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not self.channels or any(ch not in CHANNELS for ch in self.channels):
            raise ConfigError(f"channels must be a non-empty subset of {CHANNELS}, "
                              f"got {self.channels}")
        if len(set(self.channels)) != len(self.channels):
            raise ConfigError(f"duplicate channel in {self.channels}")
        if ("m3" in self.channels) != (self.variant == "dmn-kd"):
            raise ConfigError("the m3 channel is used exactly when variant is dmn-kd")
        if self.interaction not in INTERACTIONS:
            raise ConfigError(f"unknown interaction {self.interaction!r}")
        for name in ("l_u", "l_r", "c", "embed_dim", "gru_hidden", "mlp_hidden",
                     "conv_blocks"):
            if not _is_int(getattr(self, name)) or getattr(self, name) < 1:
                raise ConfigError(f"{name} must be an integer >= 1, "
                                  f"got {getattr(self, name)!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.truncate not in ("head", "tail"):
            raise ConfigError(f"truncate must be 'head' or 'tail', got {self.truncate!r}")
        self.conv.validate()
        conv_feature_size(self)  # raises if a kernel outgrows its input

    def to_json(self) -> str:
        payload = {**asdict(self), "version": _CONFIG_VERSION}
        payload["conv"].update(_CONV_JSON_CONSTANTS)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ModelConfig":
        """Inverse of to_json, validated; any malformed payload is a ConfigError."""
        try:
            data = json.loads(payload)
            if data.get("version") != _CONFIG_VERSION:
                raise ConfigError(f"unsupported model config version {data.get('version')}")
            conv = data["conv"]
            for key, value in _CONV_JSON_CONSTANTS.items():
                if conv[key] is not value:
                    raise ConfigError(f"model config has {key}={conv[key]!r}; only "
                                      f"{value!r} is supported")
            cfg = cls(**_json_fields(cls, data, "conv"),
                      conv=ConvLayerConfig(**_json_fields(ConvLayerConfig, conv)))
            cfg.validate()
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed model config: {exc!r}") from exc
        return cfg


# to_json records these fixed conv semantics so v1 readers see them spelled out
_CONV_JSON_CONSTANTS = {"flip_kernels": False, "pool_keep_partial": True}


def _json_fields(cls, data: dict, *skip: str) -> dict:
    """The dataclass's fields read from a to_json dict, JSON lists as tuples."""
    return {f.name: tuple(data[f.name]) if isinstance(data[f.name], list) else data[f.name]
            for f in fields(cls) if f.name not in skip}


def conv_feature_size(cfg: ModelConfig) -> int:
    """Flattened size of the CNN output for one (utterance, response) stack."""
    h, w = cfg.l_r, cfg.l_u
    rh, rw = cfg.conv.kernel_shape
    ph, pw = cfg.conv.pool_shape
    for block in range(cfg.conv_blocks):
        h = h + 2 * cfg.conv.padding - rh + 1
        w = w + 2 * cfg.conv.padding - rw + 1
        if h < 1 or w < 1:
            raise ConfigError(f"conv block {block}: kernel {cfg.conv.kernel_shape} "
                              f"does not fit its input")
        h, w = -(-h // ph), -(-w // pw)  # partial pool windows are kept
    return cfg.conv.kernel_count * h * w


def param_shapes(cfg: ModelConfig, vocab_size: int) -> dict:
    """Ordered name -> shape of every trainable tensor.

    This is the checkpoint order, the order ModelParams.init draws in and the
    order l2_penalty and adam_step walk.
    """
    def prefixed(prefix: str, shapes: dict) -> dict:
        return {f"{prefix}.{name}": shape for name, shape in shapes.items()}

    hidden = cfg.gru_hidden
    shapes = {"embedding": (vocab_size, cfg.embed_dim)}
    for prefix in ("enc_fwd", "enc_bwd"):
        shapes.update(prefixed(prefix, nn.gru_shapes(cfg.embed_dim, hidden)))
    in_ch = len(cfg.channels)
    for block in range(cfg.conv_blocks):
        shapes[f"conv{block}.kernels"] = (cfg.conv.kernel_count, in_ch, *cfg.conv.kernel_shape)
        shapes[f"conv{block}.bias"] = (cfg.conv.kernel_count,)
        in_ch = cfg.conv.kernel_count
    for prefix in ("ctx_fwd", "ctx_bwd"):
        shapes.update(prefixed(prefix, nn.gru_shapes(conv_feature_size(cfg), hidden)))
    shapes.update(prefixed("mlp", nn.mlp_shapes(cfg.c * 2 * hidden, cfg.mlp_hidden)))
    if cfg.interaction == "bilinear":
        shapes["bilinear_m1"] = (cfg.embed_dim, cfg.embed_dim)
        shapes["bilinear_m2"] = (2 * hidden, 2 * hidden)
    return shapes


class ModelParams:
    """All trainable tensors in one ordered name -> Tensor dict (param_shapes
    order), with per-layer views onto the same tensors."""

    def __init__(self, tensors: dict):
        self._tensors = tensors

        def group(prefix: str) -> dict:
            return {name[len(prefix) + 1:]: t for name, t in tensors.items()
                    if name.startswith(prefix + ".")}

        self.embedding = tensors["embedding"]
        self.enc_fwd, self.enc_bwd, self.ctx_fwd, self.ctx_bwd = (
            GRUParams(**group(p)) for p in ("enc_fwd", "enc_bwd", "ctx_fwd", "ctx_bwd"))
        self.conv_kernels = [t for name, t in tensors.items() if name.endswith(".kernels")]
        self.conv_biases = [t for name, t in tensors.items() if name.endswith(".bias")]
        self.mlp = MLPParams(**group("mlp"))
        self.bilinear_m1 = tensors.get("bilinear_m1")
        self.bilinear_m2 = tensors.get("bilinear_m2")

    @classmethod
    def init(cls, cfg: ModelConfig, vocab_size: int, seed: int = 0,
             pretrained_embeddings: np.ndarray | None = None,
             embed_scale: float = 0.1) -> "ModelParams":
        """Embeddings uniform in [-embed_scale, embed_scale]; weight matrices use
        variance-preserving bounds, biases start at zero and bilinear maps at
        the identity (so a fresh bilinear model scores exactly like dot)."""
        cfg.validate()
        rng = np.random.default_rng([seed, 0])
        tensors = {}
        for name, shape in param_shapes(cfg, vocab_size).items():
            if name == "embedding" and pretrained_embeddings is not None:
                values = np.array(pretrained_embeddings, dtype=np.float64)
                if values.shape != shape:
                    raise ConfigError(f"pretrained embeddings shape {values.shape} != "
                                      f"{shape}")
            elif name == "embedding":
                values = rng.uniform(-embed_scale, embed_scale, size=shape)
            elif name.startswith("bilinear"):
                values = np.eye(shape[0])
            else:
                values = nn.init_weight(shape, rng)
            tensors[name] = Tensor(values, requires_grad=True)
        return cls(tensors)

    def registry(self) -> dict:
        """Ordered name -> Tensor map over every trainable parameter."""
        return self._tensors

    def zero_grads(self) -> None:
        for tensor in self._tensors.values():
            tensor.zero_grad()

    def copy(self) -> "ModelParams":
        """Deep copy of all parameter values (gradients are not copied)."""
        return ModelParams({name: Tensor(np.array(t.values), requires_grad=True)
                            for name, t in self._tensors.items()})


def load_word_embeddings(path, vocab: Vocabulary, dim: int,
                         seed: int = 0, scale: float = 0.1) -> np.ndarray:
    """Read "token v1 .. vd" lines; tokens missing from the file stay random.

    Lines with another field count (a word2vec header, say) are skipped; a
    vocabulary token's d + 1 field line whose values are not numbers is a
    ParseError.
    """
    rng = np.random.default_rng([seed, 0])
    table = rng.uniform(-scale, scale, size=(len(vocab), dim))
    for line_no, line in read_lines(path):
        parts = line.split(" ")
        if len(parts) != dim + 1 or parts[0] not in vocab:
            continue
        try:
            table[vocab.token_to_id[parts[0]]] = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"embedding of {parts[0]!r}: {exc}", line_no) from None
    return table


# ---------------------------------------------------------------------------
# Forward passes.
# ---------------------------------------------------------------------------


def _stack_batch(utt_ids: np.ndarray, resp_ids: np.ndarray, params: ModelParams,
                 cfg: ModelConfig, m3: np.ndarray | None) -> Tensor:
    """Channel stacks for a batch: (N, c, l_u) x (B, l_r) -> (B, c, C, l_r, l_u).

    N divides B and response row j meets context j mod N: each context is
    embedded and BiGRU-encoded once, and its states are broadcast over the
    B / N response blocks.
    """
    n_ctx, n_turns, l_u = utt_ids.shape
    n_batch, l_r = resp_ids.shape
    blocks = n_batch // n_ctx
    utt_emb = nn.embedding(params.embedding, utt_ids)            # (N, c, l_u, d)
    resp_emb = nn.embedding(params.embedding, resp_ids)          # (B, l_r, d)
    mask = ((resp_ids != PAD_ID).astype(np.float64).reshape(blocks, n_ctx, 1, l_r, 1)
            * (utt_ids != PAD_ID)[:, :, None, :])
    mask_t = Tensor(mask.reshape(n_batch, n_turns, l_r, l_u))

    def grid(resp_rows: Tensor, utt_rows: Tensor, bilinear: Tensor | None) -> Tensor:
        width = resp_rows.values.shape[-1]
        resp_b = nn.reshape(resp_rows, (blocks, n_ctx, 1, l_r, width))
        out = nn.interaction_matrix(resp_b, utt_rows, mode=cfg.interaction,
                                    bilinear=bilinear)  # (B/N, N, c, l_r, l_u)
        return nn.reshape(out, (n_batch, n_turns, l_r, l_u))

    channels: list[Tensor] = []
    for channel in cfg.channels:
        if channel == "m1":
            g = grid(resp_emb, utt_emb, params.bilinear_m1)
        elif channel == "m2":
            flat = nn.reshape(utt_emb, (n_ctx * n_turns, l_u, cfg.embed_dim))
            utt_hidden = nn.reshape(nn.bigru(flat, params.enc_fwd, params.enc_bwd),
                                    (n_ctx, n_turns, l_u, 2 * cfg.gru_hidden))
            g = grid(nn.bigru(resp_emb, params.enc_fwd, params.enc_bwd), utt_hidden,
                     params.bilinear_m2)
        else:  # m3
            g = Tensor(np.asarray(m3, dtype=np.float64))
        channels.append(nn.mul(g, mask_t))
    return nn.stack(channels, axis=2)


def score_batch(utt_ids: np.ndarray, resp_ids: np.ndarray, params: ModelParams,
                cfg: ModelConfig, m3: np.ndarray | None = None,
                training: bool = False,
                dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Matching scores for a batch of (context, response) pairs, shape (B,).

    resp_ids is (B, l_r) and utt_ids (N, c, l_u) with all-PAD rows for
    padded turns, where N divides B: response j is scored against context
    j mod N, and each context is encoded once. N = B pairs rows one to one;
    N = 1 scores every response against one context. m3 (required exactly
    for dmn-kd channel sets) is (B, c, l_r, l_u): one grid per response row.
    """
    utt_ids = np.asarray(utt_ids, dtype=np.int64)
    resp_ids = np.asarray(resp_ids, dtype=np.int64)
    n_ctx, n_turns, l_u = utt_ids.shape
    n_batch = resp_ids.shape[0]
    if (n_turns != cfg.c or l_u != cfg.l_u or resp_ids.shape != (n_batch, cfg.l_r)
            or n_ctx < 1 or n_batch % n_ctx):
        raise ConfigError("batch shapes do not match the model configuration")
    if ("m3" in cfg.channels) != (m3 is not None):
        raise ConfigError("m3 must be given exactly when the m3 channel is configured")
    if m3 is not None and np.shape(m3) != (n_batch, cfg.c, cfg.l_r, cfg.l_u):
        raise ConfigError(f"m3 shape {np.shape(m3)} != "
                          f"({n_batch}, {cfg.c}, {cfg.l_r}, {cfg.l_u})")

    stacks = _stack_batch(utt_ids, resp_ids, params, cfg, m3)
    x = nn.reshape(stacks, (n_batch * n_turns, len(cfg.channels), cfg.l_r, cfg.l_u))
    for kernels, bias in zip(params.conv_kernels, params.conv_biases):
        x = nn.conv2d(x, kernels, bias, padding=cfg.conv.padding)
        x = nn.max_pool(x, cfg.conv.pool_shape)
    features = nn.reshape(x, (n_batch, n_turns, conv_feature_size(cfg)))
    context = nn.bigru(features, params.ctx_fwd, params.ctx_bwd)  # (B, c, 2O)
    flat = nn.reshape(context, (n_batch, n_turns * 2 * cfg.gru_hidden))
    flat = nn.dropout(flat, cfg.dropout, training, dropout_rng)
    return nn.mlp_score(flat, params.mlp)


# ---------------------------------------------------------------------------
# Example preparation and ranking.
# ---------------------------------------------------------------------------


@dataclass
class PreparedExample:
    """Encoded, knowledge-enriched view of one DialogExample."""

    dialog_id: str
    utt_ids: np.ndarray     # (c, l_u)
    cand_ids: np.ndarray    # (M, l_r)
    labels: np.ndarray      # (M,)
    m3: np.ndarray | None   # (M, c, l_r, l_u) for dmn-kd, else None


def prepare_example(example: DialogExample, vocab: Vocabulary, cfg: ModelConfig,
                    knowledge: KnowledgeSource | None = None) -> PreparedExample:
    """Encode one example to fixed-shape arrays, applying the variant's knowledge.

    dmn-prf expands every candidate before encoding (expansion terms go on
    the end, so originals win the length cap); dmn-kd attaches one
    correspondence matrix per candidate and turn slot, from one ppmi_matrix
    call per candidate against all turn slots end to end.
    """
    if cfg.variant in ("dmn-prf", "dmn-kd") and knowledge is None:
        raise ConfigError(f"variant {cfg.variant} needs a knowledge source")
    context = list(example.context)
    if not cfg.include_current_turn and len(context) > 1:
        context = context[:-1]
    context = window_context(context, cfg.c)
    pad_turns = cfg.c - len(context)

    utt_ids = np.full((cfg.c, cfg.l_u), PAD_ID, dtype=np.int64)
    for slot, utterance in enumerate(context, start=pad_turns):
        utt_ids[slot] = encode(utterance, vocab, cfg.l_u, cfg.truncate)

    n_cand = len(example.candidates)
    cand_ids = np.empty((n_cand, cfg.l_r), dtype=np.int64)
    labels = np.empty(n_cand, dtype=np.int64)
    m3 = None
    if "m3" in cfg.channels:
        m3 = np.zeros((n_cand, cfg.c, cfg.l_r, cfg.l_u), dtype=np.float64)
        # every turn slot end to end; PAD slots come out as zero grids
        utt_tokens = [vocab.id_to_token[i] for i in utt_ids.ravel().tolist()]

    for idx, (tokens, label) in enumerate(example.candidates):
        labels[idx] = label
        model_tokens = list(tokens)
        cand_truncate = cfg.truncate
        if cfg.variant == "dmn-prf":
            model_tokens = knowledge.expand(model_tokens)
            # keep original tokens ahead of appended expansion terms
            cand_truncate = "head"
        cand_ids[idx] = encode(model_tokens, vocab, cfg.l_r, cand_truncate)
        if m3 is not None:
            pairs = knowledge.retrieve_pairs(list(tokens))
            resp_tokens = [vocab.id_to_token[i] for i in cand_ids[idx].tolist()]
            grid = ppmi_matrix(resp_tokens, utt_tokens, pairs,
                               counting=knowledge.ppmi_counting)
            m3[idx] = grid.reshape(cfg.l_r, cfg.c, cfg.l_u).transpose(1, 0, 2)
    return PreparedExample(dialog_id=example.dialog_id, utt_ids=utt_ids,
                           cand_ids=cand_ids, labels=labels, m3=m3)


# Most grid cells (N·M·c·l_r·l_u) that one score_batch call of score_examples
# holds, and that cli's rank and eval prepare at a time. At the acceptance
# shape that is 11 ten-candidate examples a call, which removes most of the
# per-call overhead; a paper-shape example alone exceeds it and is scored on
# its own. A larger budget saved little more time and raised peak memory.
_GRID_CELL_BUDGET = 8192


def score_examples(prepared: Sequence[PreparedExample], params: ModelParams,
                   cfg: ModelConfig) -> list[list[float]]:
    """Evaluation-mode scores for every candidate of each example, in input order.

    Examples with the same candidate count are scored together, as many per
    score_batch call as fit _GRID_CELL_BUDGET grid cells and at least one. A
    batched score may differ from the example's own score_prepared in the
    last bits, as BLAS sums over another row count.
    """
    scores: list = [None] * len(prepared)
    by_count: dict = {}
    for idx, prep in enumerate(prepared):
        by_count.setdefault(len(prep.cand_ids), []).append(idx)
    with nn.no_grad():
        for n_cand, members in by_count.items():
            per_call = max(1, _GRID_CELL_BUDGET // (n_cand * cfg.c * cfg.l_r * cfg.l_u))
            for start in range(0, len(members), per_call):
                chunk = members[start:start + per_call]
                # candidate-major: row i·N + e holds candidate i of example e
                rows = [(e, i) for i in range(n_cand) for e in chunk]
                utt, resp, m3 = stack_rows(prepared, chunk, rows)
                out = score_batch(utt, resp, params, cfg, m3=m3).values
                for e, idx in enumerate(chunk):
                    scores[idx] = out[e::len(chunk)].tolist()
    return scores


def stack_rows(prepared: Sequence[PreparedExample], contexts: Sequence[int],
               rows: Sequence[tuple]) -> tuple:
    """score_batch inputs: utt (N, c, l_u) holds the contexts of the examples
    numbered in contexts, and resp (B, l_r) and m3 (B, c, l_r, l_u) or None
    hold candidate i of example e for each (e, i) in rows. score_batch meets
    response row j with context j mod N."""
    # np.array copies a list of small equal-shape arrays faster than np.stack does
    utt = np.array([prepared[e].utt_ids for e in contexts])
    resp = np.array([prepared[e].cand_ids[i] for e, i in rows])
    m3 = None
    if prepared[contexts[0]].m3 is not None:
        m3 = np.array([prepared[e].m3[i] for e, i in rows])
    return utt, resp, m3


def score_prepared(prepared: PreparedExample, params: ModelParams,
                   cfg: ModelConfig) -> list[float]:
    """Evaluation-mode scores for every candidate of a prepared example."""
    return score_examples([prepared], params, cfg)[0]


def ranked(scores: Sequence[float]) -> list[tuple[int, float]]:
    """(candidate_index, score) sorted by descending score, ties by index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [(i, scores[i]) for i in order]


def rank_prepared(prepared: PreparedExample, params: ModelParams,
                  cfg: ModelConfig) -> list[tuple[int, float]]:
    """The example's candidates ranked by their score_prepared scores."""
    return ranked(score_prepared(prepared, params, cfg))


def rank(example: DialogExample, params: ModelParams, cfg: ModelConfig,
         vocab: Vocabulary, knowledge: KnowledgeSource | None = None
         ) -> list[tuple[int, float]]:
    """Rank one example's candidates with the configured variant."""
    if not example.candidates:
        raise DataError(f"dialog {example.dialog_id!r} has no candidates")
    prepared = prepare_example(example, vocab, cfg, knowledge)
    return rank_prepared(prepared, params, cfg)


# ---------------------------------------------------------------------------
# Checkpointing.
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, cfg: ModelConfig, path,
                    provenance: dict | None = None) -> None:
    """Model checkpoint: every parameter plus the serialized configuration.

    provenance (text.provenance) records the tokenizer and vocabulary the
    parameters were trained with; load_checkpoint checks it when given.
    """
    nn.save_parameters(params.registry(), path,
                       extra_meta={"model_config": cfg.to_json(), **(provenance or {})})


def load_checkpoint(path, vocab_size: int | None = None,
                    provenance: dict | None = None) -> tuple[ModelParams, ModelConfig]:
    """Rebuild (params, config) from save_checkpoint output, bit-exact.

    The stored tensors must match param_shapes of the stored config by name
    and shape. Each provenance entry must equal the one stored in the
    checkpoint; a checkpoint saved without that entry is not checked for it.
    """
    arrays, meta = nn.load_parameters(path)
    if "model_config" not in meta:
        raise ConfigError(f"{path} is not a model checkpoint")
    cfg = ModelConfig.from_json(str(meta["model_config"]))
    n_vocab = arrays["embedding"].shape[0] if "embedding" in arrays else 0
    shapes = param_shapes(cfg, n_vocab)
    missing = set(shapes) - set(arrays)
    extra = set(arrays) - set(shapes)
    if missing or extra:
        raise ConfigError(f"checkpoint parameter mismatch: missing {sorted(missing)}, "
                          f"unexpected {sorted(extra)}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ConfigError(f"checkpoint shape mismatch for {name}: "
                              f"{arrays[name].shape} != {shape}")
    if vocab_size is not None and n_vocab != vocab_size:
        raise ConfigError(f"checkpoint vocabulary size {n_vocab} != expected {vocab_size}")
    for key, expected in (provenance or {}).items():
        if key in meta and str(meta[key]) != expected:
            raise ConfigError(f"checkpoint was trained with {key} {str(meta[key])!r}, "
                              f"this run has {expected!r}")
    # np.load read each array fresh, so the tensors take them without a copy
    return ModelParams({name: Tensor(arrays[name], requires_grad=True) for name in shapes}), cfg
