"""Binary entropy, fidelity-to-information conversion, and empirical MI.

Information is measured in bits (base-2 logs) throughout. A binary-symmetric
identification channel with fidelity F carries 1 - h(F) bits per symbol,
where h is the binary entropy; the empirical counterpart is the plug-in
mutual information of a 2x2 count table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 taken as 0."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    # explicit branch rather than relying on float limits at the endpoints
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -p * math.log2(p) - q * math.log2(q)


def info_from_fidelity(fidelity: float) -> float:
    """Bits carried per symbol by a binary-symmetric channel of fidelity F.

    Equals 1 + F log2 F + (1-F) log2 (1-F), i.e. 1 - h(F); symmetric under
    F -> 1-F because only the error rate matters.
    """
    info = 1.0 - binary_entropy(fidelity)
    return 0.0 if info < 0.0 else 1.0 if info > 1.0 else info


@dataclass(frozen=True)
class JointCounts:
    """2x2 table of non-negative integer counts indexed (alice_bit, eve_guess)."""

    counts: np.ndarray = field(repr=False)

    def __init__(self, counts) -> None:
        import numpy as np  # here, so the closed forms load without numpy

        table = np.array(counts, dtype=np.int64, copy=True)
        if table.shape != (2, 2):
            raise ValueError(f"counts must be a 2x2 table, got shape {table.shape}")
        if np.any(table < 0):
            raise ValueError("counts must be non-negative")
        table.setflags(write=False)
        object.__setattr__(self, "counts", table)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __repr__(self) -> str:
        return f"JointCounts({self.counts.tolist()!r})"


def mutual_information(counts) -> float:
    """Plug-in estimator I(A;E) in bits from a 2x2 count table.

    Accepts a JointCounts or anything coercible to a 2x2 non-negative integer
    array. Zero-probability cells contribute nothing; an all-zero table is an
    error because no distribution can be estimated from it.
    """
    if not isinstance(counts, JointCounts):
        counts = JointCounts(counts)
    n = counts.total
    if n == 0:
        raise ValueError("cannot estimate mutual information from an empty table")
    p = counts.counts / n
    p_a = p.sum(axis=1)
    p_e = p.sum(axis=0)
    info = 0.0
    for a in (0, 1):
        for e in (0, 1):
            if p[a, e] > 0.0:
                info += p[a, e] * math.log2(p[a, e] / (p_a[a] * p_e[e]))
    return 0.0 if info < 0.0 else 1.0 if info > 1.0 else info
