"""Model assembly: interaction stacks -> CNN -> context encoder -> score.

Three variants share one architecture. "dmn" matches raw responses against
the context, "dmn-prf" matches feedback-expanded responses, and "dmn-kd"
adds a third input channel of correspondence statistics per
(utterance, response) pair. Channel subsets and the interaction function
are configurable for ablations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import nn
from .corpus import DialogExample, window_context
from .errors import ConfigError, DataError
from .knowledge import KnowledgeSource, ppmi_matrix
from .nn import GRUParams, MLPParams, Tensor
from .text import PAD_ID, EncodedText, Vocabulary, aligned_tokens, encode

VARIANTS = ("dmn", "dmn-prf", "dmn-kd")
CHANNELS = ("m1", "m2", "m3")
INTERACTIONS = ("dot", "cosine", "bilinear")

_CONFIG_VERSION = 1


@dataclass
class ConvLayerConfig:
    """One convolution + pooling block."""

    kernel_shape: tuple = (3, 3)
    kernel_count: int = 8
    pool_shape: tuple = (3, 3)
    in_channels: int = 2
    padding: int = 0
    flip_kernels: bool = False
    pool_keep_partial: bool = True

    def validate(self) -> None:
        for name in ("kernel_shape", "pool_shape"):
            value = getattr(self, name)
            if len(value) != 2 or min(value) < 1:
                raise ConfigError(f"{name} must be two integers >= 1, got {value}")
        if self.kernel_count < 1:
            raise ConfigError(f"kernel_count must be >= 1, got {self.kernel_count}")
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.padding < 0:
            raise ConfigError(f"padding must be >= 0, got {self.padding}")


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
        self.conv = replace(self.conv, in_channels=len(self.channels))

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
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.truncate not in ("head", "tail"):
            raise ConfigError(f"truncate must be 'head' or 'tail', got {self.truncate!r}")
        self.conv.validate()
        conv_feature_size(self)  # raises if a kernel outgrows its input

    def to_json(self) -> str:
        payload = {
            "version": _CONFIG_VERSION,
            "variant": self.variant,
            "channels": list(self.channels),
            "interaction": self.interaction,
            "l_u": self.l_u, "l_r": self.l_r, "c": self.c,
            "embed_dim": self.embed_dim, "gru_hidden": self.gru_hidden,
            "conv": {
                "kernel_shape": list(self.conv.kernel_shape),
                "kernel_count": self.conv.kernel_count,
                "pool_shape": list(self.conv.pool_shape),
                "padding": self.conv.padding,
                "flip_kernels": self.conv.flip_kernels,
                "pool_keep_partial": self.conv.pool_keep_partial,
            },
            "conv_blocks": self.conv_blocks,
            "mlp_hidden": self.mlp_hidden,
            "dropout": self.dropout,
            "include_current_turn": self.include_current_turn,
            "truncate": self.truncate,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ModelConfig":
        data = json.loads(payload)
        if data.get("version") != _CONFIG_VERSION:
            raise ConfigError(f"unsupported model config version {data.get('version')}")
        conv = data["conv"]
        return cls(
            variant=data["variant"], channels=tuple(data["channels"]),
            interaction=data["interaction"], l_u=data["l_u"], l_r=data["l_r"],
            c=data["c"], embed_dim=data["embed_dim"], gru_hidden=data["gru_hidden"],
            conv=ConvLayerConfig(
                kernel_shape=tuple(conv["kernel_shape"]),
                kernel_count=conv["kernel_count"],
                pool_shape=tuple(conv["pool_shape"]),
                padding=conv["padding"], flip_kernels=conv["flip_kernels"],
                pool_keep_partial=conv["pool_keep_partial"]),
            conv_blocks=data["conv_blocks"], mlp_hidden=data["mlp_hidden"],
            dropout=data["dropout"], include_current_turn=data["include_current_turn"],
            truncate=data["truncate"])


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
        if cfg.conv.pool_keep_partial:
            h = -(-h // ph)
            w = -(-w // pw)
        else:
            h, w = h // ph, w // pw
            if h < 1 or w < 1:
                raise ConfigError(f"conv block {block}: pool {cfg.conv.pool_shape} "
                                  f"does not fit its input")
    return cfg.conv.kernel_count * h * w


class ModelParams:
    """All trainable tensors, each registered exactly once by name."""

    def __init__(self, embedding: Tensor, enc_fwd: GRUParams, enc_bwd: GRUParams,
                 conv_kernels: list, conv_biases: list, ctx_fwd: GRUParams,
                 ctx_bwd: GRUParams, mlp: MLPParams,
                 bilinear_m1: Tensor | None = None, bilinear_m2: Tensor | None = None):
        self.embedding = embedding
        self.enc_fwd = enc_fwd
        self.enc_bwd = enc_bwd
        self.conv_kernels = conv_kernels
        self.conv_biases = conv_biases
        self.ctx_fwd = ctx_fwd
        self.ctx_bwd = ctx_bwd
        self.mlp = mlp
        self.bilinear_m1 = bilinear_m1
        self.bilinear_m2 = bilinear_m2

    @classmethod
    def init(cls, cfg: ModelConfig, vocab_size: int, seed: int = 0,
             pretrained_embeddings: np.ndarray | None = None,
             embed_scale: float = 0.1) -> "ModelParams":
        """Embeddings uniform in [-embed_scale, embed_scale]; weight matrices use
        variance-preserving bounds, biases start at zero and bilinear maps at
        the identity (so a fresh bilinear model scores exactly like dot)."""
        cfg.validate()
        rng = np.random.default_rng([seed, 0])
        if pretrained_embeddings is not None:
            emb = np.asarray(pretrained_embeddings, dtype=np.float64)
            if emb.shape != (vocab_size, cfg.embed_dim):
                raise ConfigError(f"pretrained embeddings shape {emb.shape} != "
                                  f"({vocab_size}, {cfg.embed_dim})")
            embedding = Tensor(emb.copy(), requires_grad=True)
        else:
            embedding = Tensor(
                rng.uniform(-embed_scale, embed_scale, size=(vocab_size, cfg.embed_dim)),
                requires_grad=True)
        enc_fwd = GRUParams.init(cfg.embed_dim, cfg.gru_hidden, rng)
        enc_bwd = GRUParams.init(cfg.embed_dim, cfg.gru_hidden, rng)
        conv_kernels, conv_biases = [], []
        rh, rw = cfg.conv.kernel_shape
        in_ch = len(cfg.channels)
        for _ in range(cfg.conv_blocks):
            bound = nn.glorot_bound(in_ch * rh * rw, cfg.conv.kernel_count * rh * rw)
            conv_kernels.append(Tensor(
                rng.uniform(-bound, bound, size=(cfg.conv.kernel_count, in_ch, rh, rw)),
                requires_grad=True))
            conv_biases.append(Tensor(np.zeros(cfg.conv.kernel_count),
                                      requires_grad=True))
            in_ch = cfg.conv.kernel_count
        feature = conv_feature_size(cfg)
        ctx_fwd = GRUParams.init(feature, cfg.gru_hidden, rng)
        ctx_bwd = GRUParams.init(feature, cfg.gru_hidden, rng)
        mlp = MLPParams.init(cfg.c * 2 * cfg.gru_hidden, cfg.mlp_hidden, rng)
        bilinear_m1 = bilinear_m2 = None
        if cfg.interaction == "bilinear":
            bilinear_m1 = Tensor(np.eye(cfg.embed_dim), requires_grad=True)
            bilinear_m2 = Tensor(np.eye(2 * cfg.gru_hidden), requires_grad=True)
        return cls(embedding, enc_fwd, enc_bwd, conv_kernels, conv_biases,
                   ctx_fwd, ctx_bwd, mlp, bilinear_m1, bilinear_m2)

    def registry(self) -> dict:
        """Ordered name -> Tensor map over every trainable parameter."""
        entries: list[tuple[str, Tensor]] = [("embedding", self.embedding)]
        entries += self.enc_fwd.named("enc_fwd")
        entries += self.enc_bwd.named("enc_bwd")
        for i, (k, b) in enumerate(zip(self.conv_kernels, self.conv_biases)):
            entries.append((f"conv{i}.kernels", k))
            entries.append((f"conv{i}.bias", b))
        entries += self.ctx_fwd.named("ctx_fwd")
        entries += self.ctx_bwd.named("ctx_bwd")
        entries += self.mlp.named("mlp")
        if self.bilinear_m1 is not None:
            entries.append(("bilinear_m1", self.bilinear_m1))
        if self.bilinear_m2 is not None:
            entries.append(("bilinear_m2", self.bilinear_m2))
        return dict(entries)

    def zero_grads(self) -> None:
        for tensor in self.registry().values():
            tensor.zero_grad()

    def copy(self) -> "ModelParams":
        """Deep copy of all parameter values (gradients are not copied)."""
        def dup(t: Tensor | None):
            return None if t is None else Tensor(t.values.copy(), requires_grad=True)

        def dup_gru(p: GRUParams) -> GRUParams:
            return GRUParams(*[dup(t) for t in p.tensors()])

        return ModelParams(
            dup(self.embedding), dup_gru(self.enc_fwd), dup_gru(self.enc_bwd),
            [dup(t) for t in self.conv_kernels], [dup(t) for t in self.conv_biases],
            dup_gru(self.ctx_fwd), dup_gru(self.ctx_bwd),
            MLPParams(dup(self.mlp.w1), dup(self.mlp.b1), dup(self.mlp.w2),
                      dup(self.mlp.b2)),
            dup(self.bilinear_m1), dup(self.bilinear_m2))


def load_word_embeddings(path, vocab: Vocabulary, dim: int,
                         seed: int = 0, scale: float = 0.1) -> np.ndarray:
    """Read "token v1 .. vd" lines; tokens missing from the file stay random."""
    rng = np.random.default_rng([seed, 0])
    table = rng.uniform(-scale, scale, size=(len(vocab), dim))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                continue
            if parts[0] in vocab:
                table[vocab.token_to_id[parts[0]]] = [float(v) for v in parts[1:]]
    return table


# ---------------------------------------------------------------------------
# Forward passes.
# ---------------------------------------------------------------------------


def _interact(a: Tensor, b: Tensor, cfg: ModelConfig, params: ModelParams,
              channel: str) -> Tensor:
    bilinear = None
    if cfg.interaction == "bilinear":
        bilinear = params.bilinear_m1 if channel == "m1" else params.bilinear_m2
    return nn.interaction_matrix(a, b, mode=cfg.interaction, bilinear=bilinear)


def build_stack(utterance: EncodedText, response: EncodedText, params: ModelParams,
                cfg: ModelConfig, m3: np.ndarray | None = None) -> Tensor:
    """Channel stack for one (utterance, response) pair, shape (C, l_r, l_u).

    Rows index response positions and columns utterance positions. PAD
    positions are masked to zero in every channel.
    """
    if ("m3" in cfg.channels) != (m3 is not None):
        raise ConfigError("m3 must be given exactly when the m3 channel is configured")
    if m3 is not None and m3.shape != (cfg.l_r, cfg.l_u):
        raise ConfigError(f"m3 shape {m3.shape} != ({cfg.l_r}, {cfg.l_u})")
    utt_ids = utterance.ids[None, None, :]   # (1, 1, l_u)
    resp_ids = response.ids[None, :]         # (1, l_r)
    stacks = _stack_batch(utt_ids, resp_ids, params, cfg,
                          None if m3 is None else m3[None, None])
    return nn.reshape(stacks, stacks.values.shape[2:])


@dataclass
class EncodedContext:
    """The response-independent half of the M1/M2 channels for N contexts."""

    emb: Tensor            # (N, c, l_u, d) utterance embeddings
    hidden: Tensor | None  # (N, c, l_u, 2 * hidden) utterance BiGRU states, with m2
    mask: np.ndarray       # (N, c, l_u) 1.0 at non-PAD positions


def encode_context(utt_ids: np.ndarray, params: ModelParams,
                   cfg: ModelConfig) -> EncodedContext:
    """Embed and BiGRU-encode (N, c, l_u) utterance ids, once per context."""
    n_ctx, n_turns, l_u = utt_ids.shape
    emb = nn.embedding(params.embedding, utt_ids)
    hidden = None
    if "m2" in cfg.channels:
        flat = nn.reshape(emb, (n_ctx * n_turns, l_u, cfg.embed_dim))
        hidden = nn.reshape(nn.bigru(flat, params.enc_fwd, params.enc_bwd),
                            (n_ctx, n_turns, l_u, 2 * cfg.gru_hidden))
    return EncodedContext(emb, hidden, (utt_ids != PAD_ID).astype(np.float64))


def match_context(ctx: EncodedContext, resp_ids: np.ndarray, params: ModelParams,
                  cfg: ModelConfig, m3: np.ndarray | None) -> Tensor:
    """Channel stacks (B, c, C, l_r, l_u) of B responses against N encoded contexts.

    N divides B and response row j meets context j mod N: the encoded
    states are broadcast over the B / N response blocks, never re-encoded.
    """
    n_ctx, n_turns, l_u = ctx.mask.shape
    n_batch, l_r = resp_ids.shape
    blocks = n_batch // n_ctx
    resp_emb = nn.embedding(params.embedding, resp_ids)          # (B, l_r, d)
    mask = ((resp_ids != PAD_ID).astype(np.float64).reshape(blocks, n_ctx, 1, l_r, 1)
            * ctx.mask[:, :, None, :])
    mask_t = Tensor(mask.reshape(n_batch, n_turns, l_r, l_u))

    def grid(resp_rows: Tensor, utt_rows: Tensor, channel: str) -> Tensor:
        width = resp_rows.values.shape[-1]
        resp_b = nn.reshape(resp_rows, (blocks, n_ctx, 1, l_r, width))
        out = _interact(resp_b, utt_rows, cfg, params, channel)  # (B/N, N, c, l_r, l_u)
        return nn.reshape(out, (n_batch, n_turns, l_r, l_u))

    channels: list[Tensor] = []
    for channel in cfg.channels:
        if channel == "m1":
            g = grid(resp_emb, ctx.emb, "m1")
        elif channel == "m2":
            g = grid(nn.bigru(resp_emb, params.enc_fwd, params.enc_bwd), ctx.hidden, "m2")
        else:  # m3
            g = Tensor(np.asarray(m3, dtype=np.float64))
        channels.append(nn.mul(g, mask_t))
    return nn.stack(channels, axis=2)


def _stack_batch(utt_ids: np.ndarray, resp_ids: np.ndarray, params: ModelParams,
                 cfg: ModelConfig, m3: np.ndarray | None) -> Tensor:
    """Channel stacks for a batch: (N, c, l_u) x (B, l_r) -> (B, c, C, l_r, l_u)."""
    return match_context(encode_context(utt_ids, params, cfg), resp_ids, params, cfg, m3)


def score_batch(utt_ids: np.ndarray, resp_ids: np.ndarray, params: ModelParams,
                cfg: ModelConfig, m3: np.ndarray | None = None,
                training: bool = False,
                dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Matching scores for a batch of (context, response) pairs, shape (B,).

    resp_ids is (B, l_r) and utt_ids (N, c, l_u) with all-PAD rows for
    padded turns, where N divides B: response j is scored against context
    j mod N, and each context is encoded once. N = B pairs rows one to one;
    N = 1 scores every response against one context. m3 (required exactly
    for dmn-kd channel sets) is (B, c, l_r, l_u).
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

    stacks = _stack_batch(utt_ids, resp_ids, params, cfg, m3)
    x = nn.reshape(stacks, (n_batch * n_turns, len(cfg.channels), cfg.l_r, cfg.l_u))
    for kernels, bias in zip(params.conv_kernels, params.conv_biases):
        x = nn.conv2d(x, kernels, bias, padding=cfg.conv.padding,
                      flip_kernels=cfg.conv.flip_kernels)
        x = nn.max_pool(x, cfg.conv.pool_shape,
                        keep_partial=cfg.conv.pool_keep_partial)
    features = nn.reshape(x, (n_batch, n_turns, conv_feature_size(cfg)))
    context = nn.bigru(features, params.ctx_fwd, params.ctx_bwd)  # (B, c, 2O)
    flat = nn.reshape(context, (n_batch, n_turns * 2 * cfg.gru_hidden))
    flat = nn.dropout(flat, cfg.dropout, training, dropout_rng)
    return nn.mlp_score(flat, params.mlp)


def score(context: Sequence[EncodedText], response: EncodedText, params: ModelParams,
          cfg: ModelConfig, m3_per_turn: Sequence[np.ndarray] | None = None,
          training: bool = False,
          dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Score one candidate against one context (scalar Tensor in (0, 1)).

    Contexts shorter than cfg.c are padded at the front with all-PAD turns;
    m3_per_turn, when given, must align with the *padded* turn slots.
    """
    if len(context) > cfg.c:
        raise ConfigError(f"context has {len(context)} turns, model allows {cfg.c}")
    pad_turns = cfg.c - len(context)
    utt_ids = np.full((1, cfg.c, cfg.l_u), PAD_ID, dtype=np.int64)
    for slot, utt in enumerate(context):
        utt_ids[0, pad_turns + slot] = utt.ids
    resp_ids = response.ids[None, :]
    m3 = None
    if m3_per_turn is not None:
        if len(m3_per_turn) != cfg.c:
            raise ConfigError("m3_per_turn must cover every padded turn slot")
        m3 = np.stack([np.asarray(m, dtype=np.float64) for m in m3_per_turn])[None]
    out = score_batch(utt_ids, resp_ids, params, cfg, m3=m3, training=training,
                      dropout_rng=dropout_rng)
    return nn.reshape(out, ())


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
    encoded_utts: list[EncodedText] = []
    for slot in range(cfg.c):
        if slot < pad_turns:
            enc = EncodedText(ids=np.full(cfg.l_u, PAD_ID, dtype=np.int64), true_len=0)
        else:
            enc = encode(context[slot - pad_turns], vocab, cfg.l_u, cfg.truncate)
        encoded_utts.append(enc)
        utt_ids[slot] = enc.ids

    n_cand = len(example.candidates)
    cand_ids = np.empty((n_cand, cfg.l_r), dtype=np.int64)
    labels = np.empty(n_cand, dtype=np.int64)
    m3 = None
    if "m3" in cfg.channels:
        m3 = np.zeros((n_cand, cfg.c, cfg.l_r, cfg.l_u), dtype=np.float64)
        # every turn slot end to end; PAD slots come out as zero grids
        utt_tokens = [tok for enc in encoded_utts for tok in aligned_tokens(enc, vocab)]

    for idx, (tokens, label) in enumerate(example.candidates):
        labels[idx] = label
        model_tokens = list(tokens)
        cand_truncate = cfg.truncate
        if cfg.variant == "dmn-prf":
            model_tokens = knowledge.expand(model_tokens)
            # keep original tokens ahead of appended expansion terms
            cand_truncate = "head"
        enc = encode(model_tokens, vocab, cfg.l_r, cand_truncate)
        cand_ids[idx] = enc.ids
        if m3 is not None:
            pairs = knowledge.retrieve_pairs(list(tokens))
            grid = ppmi_matrix(aligned_tokens(enc, vocab), utt_tokens, pairs,
                               counting=knowledge.ppmi_counting)
            m3[idx] = grid.reshape(cfg.l_r, cfg.c, cfg.l_u).transpose(1, 0, 2)
    return PreparedExample(dialog_id=example.dialog_id, utt_ids=utt_ids,
                           cand_ids=cand_ids, labels=labels, m3=m3)


def score_prepared(prepared: PreparedExample, params: ModelParams,
                   cfg: ModelConfig) -> list[float]:
    """Evaluation-mode scores for every candidate of a prepared example."""
    with nn.no_grad():
        out = score_batch(prepared.utt_ids[None], prepared.cand_ids, params, cfg,
                          m3=prepared.m3)
    return [float(v) for v in out.values]


def rank_prepared(prepared: PreparedExample, params: ModelParams,
                  cfg: ModelConfig) -> list[tuple[int, float]]:
    """(candidate_index, score) sorted by descending score, ties by index."""
    scores = score_prepared(prepared, params, cfg)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [(i, scores[i]) for i in order]


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

    Each provenance entry must equal the one stored in the checkpoint; a
    checkpoint saved without that entry is not checked for it.
    """
    arrays, meta = nn.load_parameters(path)
    if "model_config" not in meta:
        raise ConfigError(f"{path} is not a model checkpoint")
    cfg = ModelConfig.from_json(str(meta["model_config"]))
    cfg.validate()
    if vocab_size is not None and arrays["embedding"].shape[0] != vocab_size:
        raise ConfigError(f"checkpoint vocabulary size {arrays['embedding'].shape[0]} "
                          f"!= expected {vocab_size}")
    for key, expected in (provenance or {}).items():
        if key in meta and str(meta[key]) != expected:
            raise ConfigError(f"checkpoint was trained with {key} {str(meta[key])!r}, "
                              f"this run has {expected!r}")
    params = ModelParams.init(cfg, arrays["embedding"].shape[0], seed=0)
    registry = params.registry()
    missing = set(registry) - set(arrays)
    extra = set(arrays) - set(registry)
    if missing or extra:
        raise ConfigError(f"checkpoint parameter mismatch: missing {sorted(missing)}, "
                          f"unexpected {sorted(extra)}")
    for name, tensor in registry.items():
        if tensor.values.shape != arrays[name].shape:
            raise ConfigError(f"checkpoint shape mismatch for {name}")
        tensor.values[...] = arrays[name]
    return params, cfg
