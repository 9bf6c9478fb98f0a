"""The value types' semantics: reprs, equality, immutability, validation and copying.

The configs are memo keys and CSV inputs, the reports and estimates are what
the README prints, and every one of them must survive pickle and copy as an
equal value.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from bb84eve.analytic_strategies import BasisStats, closed_form, intercept_resend
from bb84eve.attacks import AncillaNoMemory, AncillaWithMemory, InterceptResend, NoAttack
from bb84eve.protocol_sim import Trace, run_protocol
from bb84eve.quantum_core import EquatorBasis, Outcome, PureState

COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}

# value, its repr, and an assignable field name
VALUES = [
    (NoAttack(), "NoAttack()", "phi"),
    (InterceptResend(0.5, 0.3), "InterceptResend(phi=0.5, fraction=0.3, symmetrize=True)", "phi"),
    (InterceptResend(phi=0.5), "InterceptResend(phi=0.5, fraction=1.0, symmetrize=True)", "fraction"),
    (AncillaNoMemory(0.5, 0.3, False), "AncillaNoMemory(alpha=0.5, phi=0.3, symmetrize=False)",
     "alpha"),
    (AncillaWithMemory(0.5), "AncillaWithMemory(alpha=0.5)", "alpha"),
    (BasisStats(0.9), "BasisStats(fidelity=0.9)", "fidelity"),
    (EquatorBasis(0.5), "EquatorBasis(phi=0.5)", "phi"),
]

# record type name -> its fields in repr order
FIELDS = {
    "CurvePoint": ("strategy", "phi", "alpha", "fraction", "d_bob", "i_eve", "i_bob"),
    "StrategyReport": ("eve_x", "eve_y", "bob_x", "bob_y", "bob_overall", "eve_avg_info",
                       "bob_info"),
    "SimEstimate": (
        "n_rounds", "n_sifted", "n_intercepted", "qber", "qber_se", "qber_x", "qber_y",
        "eve_mutual_info", "eve_mutual_info_se", "eve_mutual_info_intercepted",
        "eve_mutual_info_intercepted_se", "eve_fidelity_x", "eve_fidelity_x_se",
        "eve_fidelity_y", "eve_fidelity_y_se",
    ),
}


def records():
    estimate, _ = run_protocol(2000, InterceptResend(0.3, 0.5), seed=7)
    return [closed_form(AncillaNoMemory(0.5, 0.3)), intercept_resend(0.2), estimate]


def small_trace() -> Trace:
    return Trace(np.array([3, 200], dtype=np.uint16), (0.5, "revealed"))


class TestValues:
    @pytest.mark.parametrize("value, text, _", VALUES)
    def test_repr(self, value, text, _):
        assert repr(value) == text

    def test_record_reprs_list_every_field(self):
        assert repr(closed_form(InterceptResend(0.5, 0.3))) == (
            "CurvePoint(strategy='intercept_resend', phi=0.5, alpha=None, fraction=0.3, "
            "d_bob=0.075, i_eve=0.12608939838570513, i_bob=0.6156884558735031)"
        )
        for record in records():
            name = type(record).__name__
            cells = ", ".join(f"{field}={getattr(record, field)!r}" for field in FIELDS[name])
            assert repr(record) == f"{name}({cells})"

    def test_pure_state_repr(self):
        assert repr(PureState([1, 0])) == "PureState([(1+0j), 0j])"

    def test_trace_repr(self):
        assert repr(small_trace()) == (
            "Trace(codes=array([  3, 200], dtype=uint16), eve_labels=(0.5, 'revealed'))"
        )

    @pytest.mark.parametrize("value, _, __", VALUES)
    def test_equal_values_hash_equal(self, value, _, __):
        twin = copy.deepcopy(value)
        assert twin == value and hash(twin) == hash(value)
        assert {value: 1}[twin] == 1

    def test_equality_needs_the_exact_type(self):
        assert InterceptResend(0.5, 0.3) != AncillaNoMemory(0.5, 0.3)
        assert AncillaNoMemory(0.5, 0.3) != InterceptResend(0.5, 0.3)
        assert InterceptResend(0.5, 0.3) != InterceptResend(0.5, 0.3, symmetrize=False)
        assert AncillaWithMemory(0.5) != EquatorBasis(0.5)
        assert BasisStats(0.5) != EquatorBasis(0.5)
        assert NoAttack() == NoAttack() and NoAttack() != AncillaWithMemory(0.0)

    def test_signed_zero_angles_are_one_basis(self):
        assert EquatorBasis(-0.0) == EquatorBasis(0.0)
        assert hash(EquatorBasis(-0.0)) == hash(EquatorBasis(0.0))

    def test_trace_equality_is_identity(self):
        trace = small_trace()
        assert trace == trace and trace != small_trace()
        assert hash(trace) == hash(trace)
        assert len(trace) == 2

    @pytest.mark.parametrize("value, _, name", VALUES)
    def test_fields_are_read_only(self, value, _, name):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.1)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_other_values_are_read_only(self):
        values = [(PureState([1, 0]), "amplitudes"), (small_trace(), "codes")]
        values += [(record, FIELDS[type(record).__name__][0]) for record in records()]
        for value, name in values:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: InterceptResend(1.0), "phi must lie in [0, pi/4], got 1.0"),
            (lambda: InterceptResend(0.1, 2), "fraction must lie in [0, 1], got 2"),
            (lambda: InterceptResend(-0.1), "phi must lie in [0, pi/4], got -0.1"),
            (lambda: AncillaNoMemory(2, 0.1), "alpha must lie in [0, pi/2], got 2"),
            (lambda: AncillaNoMemory(0.1, 1.0), "phi must lie in [0, pi/4], got 1.0"),
            (lambda: AncillaWithMemory(-1), "alpha must lie in [0, pi/2], got -1"),
            (lambda: AncillaWithMemory(math.nan), "alpha must lie in [0, pi/2], got nan"),
            (lambda: BasisStats(1.5), "fidelity must lie in [0, 1], got 1.5"),
            (lambda: EquatorBasis(math.nan), "phi must be finite"),
            (lambda: EquatorBasis(math.inf), "phi must be finite"),
            (lambda: PureState([1, 1]), "state not normalized: |psi|^2 = 2.0"),
            (lambda: PureState([1, 0, 0]), "state must have 2 or 4 amplitudes, got shape (3,)"),
            (lambda: PureState([math.nan, 0]), "amplitudes must be finite"),
        ],
    )
    def test_validation_messages(self, make, message):
        with pytest.raises(ValueError) as error:
            make()
        assert str(error.value) == message

    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize("value", [v for v, _, _ in VALUES])
    def test_values_copy_as_equal_values(self, how, value):
        twin = COPIES[how](value)
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)

    @pytest.mark.parametrize("how", COPIES)
    def test_records_copy_as_equal_values(self, how):
        for record in records():
            twin = COPIES[how](record)
            assert type(twin) is type(record) and twin == record

    @pytest.mark.parametrize("how", COPIES)
    def test_pure_state_and_trace_copy(self, how):
        state = COPIES[how](PureState([0.6, 0.8j]))
        assert type(state) is PureState
        np.testing.assert_array_equal(state.amplitudes, [0.6, 0.8j])
        trace = COPIES[how](small_trace())
        assert type(trace) is Trace and trace.eve_labels == (0.5, "revealed")
        np.testing.assert_array_equal(trace.codes, [3, 200])
        assert trace.codes.dtype == np.uint16

    def test_copied_basis_shares_the_memo(self):
        basis = EquatorBasis(0.25)
        for how in COPIES.values():
            assert how(basis).eigenstate(Outcome.PLUS) is basis.eigenstate(Outcome.PLUS)
