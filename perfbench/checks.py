"""Checks of the program's outputs; each raises CheckFailed on a mismatch.

Every check compares an output of the program with a property it must have
or with a value computed apart from it (see reference.py), never with a
stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

SCORE_RTOL = 1e-9     # float64 reference vs program, same formulas, other op order
KNOWLEDGE_TOL = 1e-9  # PPMI entries: the same counts and formula on both sides
GRAD_RTOL = 1e-5      # central difference with step 1e-5 on a smooth loss
RECALL_FLOOR = 0.9    # acceptance criterion 5


class CheckFailed(Exception):
    pass


def ranking(order, n_candidates: int, what: str) -> None:
    """A permutation of the candidates, by descending score, ties by index,
    with every score strictly inside (0, 1)."""
    indices = [i for i, _ in order]
    if sorted(indices) != list(range(n_candidates)):
        raise CheckFailed(f"{what}: ranking {indices} is not a permutation of "
                          f"{n_candidates} candidates")
    keys = [(-s, i) for i, s in order]
    if keys != sorted(keys):
        raise CheckFailed(f"{what}: ranking is not sorted by score, ties by index")
    if not all(0.0 < s < 1.0 for _, s in order):
        raise CheckFailed(f"{what}: a score lies outside (0, 1)")


def scores(program, reference, what: str) -> None:
    program = np.asarray(program, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if program.shape != reference.shape or not np.allclose(
            program, reference, rtol=SCORE_RTOL, atol=0.0):
        diff = np.max(np.abs(program - reference)) if program.shape == reference.shape else None
        raise CheckFailed(f"{what}: scores differ from the reference (max diff {diff})")


def topk(program_hits, reference_hits, what: str) -> None:
    """Same document ids in the same order, scores equal within tolerance."""
    if [d for d, _ in program_hits] != [d for d, _ in reference_hits]:
        raise CheckFailed(f"{what}: top-k ids differ from brute-force BM25")
    scores([s for _, s in program_hits], [s for _, s in reference_hits], what)


def expansion(program_tokens, reference_tokens, what: str) -> None:
    if list(program_tokens) != list(reference_tokens):
        raise CheckFailed(f"{what}: expansion {program_tokens[-10:]} differs from "
                          f"the reference {reference_tokens[-10:]}")


def ppmi(program, reference, what: str) -> None:
    program = np.asarray(program)
    if program.shape != reference.shape or not np.allclose(
            program, reference, rtol=KNOWLEDGE_TOL, atol=KNOWLEDGE_TOL):
        raise CheckFailed(f"{what}: PPMI matrix differs from the reference")


def directional_derivative(analytic: float, numeric: float, what: str) -> None:
    denom = max(abs(analytic), abs(numeric), 1e-12)
    if abs(analytic - numeric) / denom > GRAD_RTOL:
        raise CheckFailed(f"{what}: gradient . v = {analytic!r} but central "
                          f"difference gives {numeric!r}")


def recall_at_1(value: float, what: str) -> None:
    if not value >= RECALL_FLOOR:
        raise CheckFailed(f"{what}: R@1 {value:.3f} < {RECALL_FLOOR}")


def read_ranking_output(path) -> dict:
    """dialog id -> [(candidate index, score)] in rank order, from a
    dialog_id<TAB>candidate_index<TAB>score<TAB>rank file; ranks must run 1..M."""
    groups: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            dialog_id, cand, score, rank = line.rstrip("\n").split("\t")
            rows = groups.setdefault(dialog_id, [])
            if int(rank) != len(rows) + 1:
                raise CheckFailed(f"{path}: dialog {dialog_id} rank {rank} out of sequence")
            rows.append((int(cand), float(score)))
    return groups
