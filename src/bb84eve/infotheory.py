"""Binary entropy and fidelity-to-information conversion.

Information is measured in bits (base-2 logs) throughout. A binary-symmetric
identification channel with fidelity F carries 1 - h(F) bits per symbol,
where h is the binary entropy. The engine's empirical counterpart, the
plug-in mutual information of its count tables, lives with its estimators
in ``protocol_sim``.
"""

import math


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
