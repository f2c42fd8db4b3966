from math import comb

import numpy as np
import pytest

from portclone.measurements import (
    Povm,
    clone_mpbt_povm,
    complete,
    pgm,
    povm_to_json_dict,
    std_pbtc_povm,
)
from portclone.cloning import clone_adjoint_on_input
from portclone.states import (
    ensemble_average,
    input_label,
    mpbt_ensemble,
    pbt_layout,
    pbtc_ensemble,
    pbtc_signal,
)
from portclone.symmetry import enumerate_ordered, enumerate_unordered
from portclone.tensor_core import (
    LabeledOperator,
    SubsystemLayout,
    hermitian_eig,
    support_projector,
)


class TestPgm:
    def test_elements_psd(self):
        povm = pgm(pbtc_ensemble(3, 2, 2))
        for el in povm.outcomes.values():
            assert hermitian_eig(el).eigenvalues.min() > -1e-10

    def test_sums_to_support_projector(self):
        e = pbtc_ensemble(3, 2, 2)
        povm = pgm(e)
        proj = support_projector(ensemble_average(e))
        assert np.abs(povm.element_sum().entries - proj.entries).max() < 1e-10

    def test_orthogonal_ensemble_gives_projective(self):
        # PGM of perfectly distinguishable states is the projective measurement
        layout = SubsystemLayout(["a"], [2])
        s0 = LabeledOperator(layout, np.diag([1.0, 0.0]))
        s1 = LabeledOperator(layout, np.diag([0.0, 1.0]))
        povm = pgm({0: s0, 1: s1})
        els = list(povm.outcomes.values())
        assert np.allclose(els[0].entries, np.diag([1.0, 0.0]))
        assert np.allclose(els[1].entries, np.diag([0.0, 1.0]))

    def test_mixed_layouts_rejected(self):
        layout = SubsystemLayout(["a"], [2])
        s0 = LabeledOperator(layout, np.diag([1.0, 0.0]))
        s1 = LabeledOperator(SubsystemLayout(["b"], [2]), np.diag([0.0, 1.0]))
        with pytest.raises(ValueError, match="layout"):
            pgm({0: s0, 1: s1})

    def test_zero_average_refused(self):
        zero = LabeledOperator(SubsystemLayout(["a"], [2]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="ensemble average is zero"):
            pgm({0: zero, 1: zero})

    def test_keys_carried_through(self):
        povm = pgm(pbtc_ensemble(4, 2, 2))
        assert set(povm.outcomes) == set(enumerate_unordered(4, 2))


class TestComplete:
    def test_completed_sum_is_identity(self):
        povm = complete(pgm(pbtc_ensemble(3, 2, 2)))
        dim = povm.layout.dim
        assert np.abs(povm.element_sum().entries - np.eye(dim)).max() < 1e-10
        povm.validate()

    def test_delta_split_uniformly(self):
        e = pbtc_ensemble(3, 2, 2)
        raw = pgm(e)
        done = complete(raw)
        n = len(raw)
        first = next(iter(raw.outcomes))
        diff = done.outcomes[first].entries - raw.outcomes[first].entries
        assert np.abs(diff - done.completion_element.entries).max() < 1e-12
        total_delta = n * done.completion_element.entries
        proj = support_projector(ensemble_average(e))
        expected = np.eye(done.layout.dim) - proj.entries
        assert np.abs(total_delta - expected).max() < 1e-10

    def test_oversized_sum_rejected(self):
        layout = SubsystemLayout(["a"], [2])
        bad = Povm(
            outcomes={0: LabeledOperator(layout, 1.5 * np.eye(2))}, layout=layout
        )
        with pytest.raises(ValueError, match="exceeds identity"):
            complete(bad)

    @pytest.mark.parametrize("entries,message", [
        ([[0.5, 0.1], [0.0, 0.5]], "not Hermitian"),
        ([[0.5, 0.0], [0.0, -0.5]], "not PSD"),
    ])
    def test_non_hermitian_or_non_psd_sum_rejected(self, entries, message):
        # the completion reads the checked spectrum of the sum, so a sum whose
        # top eigenvalue stays below 1 is still refused
        layout = SubsystemLayout(["a"], [2])
        bad = Povm(outcomes={0: LabeledOperator(layout, np.array(entries))}, layout=layout)
        with pytest.raises(ValueError, match=message):
            complete(bad)


class TestValidate:
    def test_negative_element_refused(self):
        # the elements sum to the identity, but one of them is not PSD
        layout = SubsystemLayout(["a"], [2])
        outcomes = {0: LabeledOperator(layout, np.diag([1.5, 0.5])),
                    1: LabeledOperator(layout, np.diag([-0.5, 0.5]))}
        with pytest.raises(ValueError, match="POVM element 1 has negative eigenvalue"):
            Povm(outcomes=outcomes, layout=layout).validate()

    def test_incomplete_povm_refused(self):
        layout = SubsystemLayout(["a"], [2])
        half = Povm(outcomes={0: LabeledOperator(layout, np.eye(2) / 2)}, layout=layout)
        with pytest.raises(ValueError, match="sum to identity only within 5.000e-01"):
            half.validate()


class TestPovmLayout:
    # the sizes agree, so only the layout check tells the elements apart
    @pytest.mark.parametrize("labels,dims", [(["a", "b"], [2, 3]), (["b", "a"], [3, 2])])
    def test_element_on_another_layout_refused(self, labels, dims):
        layout = SubsystemLayout(["a", "b"], [3, 2])
        own = LabeledOperator(layout, np.eye(6) / 2)
        foreign = LabeledOperator(SubsystemLayout(labels, dims), np.eye(6) / 2)
        with pytest.raises(ValueError, match="POVM element on"):
            Povm(outcomes={0: own, 1: foreign}, layout=layout)
        with pytest.raises(ValueError, match="POVM element on"):
            Povm(outcomes={0: own}, layout=layout, completion_element=foreign)


class TestStdPbtcPovm:
    @pytest.mark.parametrize("N,M", [(2, 2), (3, 2), (4, 2), (3, 3)])
    def test_valid_povm(self, N, M):
        povm = std_pbtc_povm(N, M, 2)
        assert len(povm) == comb(N, M)
        povm.validate()

    def test_m1_matches_single_port_pgm(self):
        # with no symmetrization the builder must reduce to the plain PGM
        a = std_pbtc_povm(3, 1, 2)
        b = complete(pgm({I: pbtc_signal((I[0],), 3, 2) for I in a.outcomes}))
        for I in a.outcomes:
            assert np.abs(a.outcomes[I].entries - b.outcomes[I].entries).max() < 1e-12

    def test_n2_m2_collapses_to_identity(self):
        # a single outcome absorbs the whole completion
        povm = std_pbtc_povm(2, 2, 2)
        assert len(povm) == 1
        el = next(iter(povm.outcomes.values()))
        assert np.abs(el.entries - np.eye(povm.layout.dim)).max() < 1e-10


def ordered_outcome_clone_povm(N, M, d):
    """The clone-and-teleport POVM built over the N!/(N-M)! ordered outcomes:
    PGM over every ordering, elements of one port set merged by summation,
    then pulled back through the cloning adjoint and completed."""
    merged = {}
    for J, element in pgm(mpbt_ensemble(N, M, d)).outcomes.items():
        I = tuple(sorted(J))
        merged[I] = merged[I] + element if I in merged else element
    x_labels = [input_label(k) for k in range(1, M + 1)]
    layout = pbt_layout(N, d)
    outcomes = {
        I: clone_adjoint_on_input(merged[I], x_labels, d, input_label()).permute_subsystems(
            layout.labels
        )
        for I in enumerate_unordered(N, M)
    }
    return complete(Povm(outcomes=outcomes, layout=layout))


class TestCloneMpbtPovm:
    @pytest.mark.parametrize("d,N,M", [(2, 3, 2), (2, 4, 2), (2, 4, 3), (2, 5, 2), (3, 3, 2)])
    def test_matches_ordered_outcome_reference(self, d, N, M):
        # one member per port set, the mean of its orderings, against the PGM
        # over every ordering merged afterwards
        povm, reference = clone_mpbt_povm(N, M, d), ordered_outcome_clone_povm(N, M, d)
        assert povm.layout == reference.layout
        assert list(povm.outcomes) == list(reference.outcomes)
        for I, element in povm.outcomes.items():
            assert np.abs(element.entries - reference.outcomes[I].entries).max() <= 1e-13
        delta = povm.completion_element.entries - reference.completion_element.entries
        assert np.abs(delta).max() <= 1e-13

    @pytest.mark.parametrize("N,M", [(2, 2), (3, 2), (4, 2)])
    def test_valid_povm(self, N, M):
        povm = clone_mpbt_povm(N, M, 2)
        assert len(povm) == comb(N, M)
        povm.validate()

    def test_layout_is_single_slot_canonical(self):
        povm = clone_mpbt_povm(3, 2, 2)
        assert povm.layout.labels == ("X", "A1", "A2", "A3")

    def test_n2_m2_collapses_to_identity(self):
        povm = clone_mpbt_povm(2, 2, 2)
        assert len(povm) == 1
        el = next(iter(povm.outcomes.values()))
        assert np.abs(el.entries - np.eye(povm.layout.dim)).max() < 1e-10


class TestOutcomeKeys:
    @pytest.mark.parametrize("N,M", [(3, 2), (4, 2), (4, 3)])
    def test_keys_are_the_enumerated_tuples(self, N, M):
        # every outcome is a plain port tuple, in enumeration order
        expected = {
            "std-pbtc": (std_pbtc_povm(N, M, 2).outcomes, enumerate_unordered(N, M)),
            "clone-mpbt": (clone_mpbt_povm(N, M, 2).outcomes, enumerate_unordered(N, M)),
            "pbtc ensemble": (pbtc_ensemble(N, M, 2), enumerate_unordered(N, M)),
            "mpbt ensemble": (mpbt_ensemble(N, M, 2), enumerate_ordered(N, M)),
        }
        for name, (keyed, outcomes) in expected.items():
            assert list(keyed) == outcomes, name
            assert all(type(key) is tuple for key in keyed), name


class TestJsonDump:
    def test_roundtrip_shape(self):
        povm = std_pbtc_povm(3, 2, 2)
        doc = povm_to_json_dict(povm)
        assert doc["dimension"] == 16
        assert len(doc["outcomes"]) == 3
        assert doc["outcomes"][0]["key"]["kind"] == "port_set"
        assert len(doc["outcomes"][0]["entries"]) == 16 * 16
        assert "completion_element" in doc

    def test_entries_reconstruct(self):
        povm = std_pbtc_povm(3, 2, 2)
        doc = povm_to_json_dict(povm)
        first = doc["outcomes"][0]
        assert first["key"]["N"] == 3
        key = tuple(first["key"]["ports"])
        flat = np.array([re + 1j * im for re, im in first["entries"]])
        recon = flat.reshape(16, 16)
        assert np.abs(recon - povm.outcomes[key].entries).max() < 1e-15
