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
from portclone.states import ensemble_average, pbt_signal, pbtc_ensemble
from portclone.symmetry import PortSet, enumerate_unordered
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


class TestStdPbtcPovm:
    @pytest.mark.parametrize("N,M", [(2, 2), (3, 2), (4, 2), (3, 3)])
    def test_valid_povm(self, N, M):
        povm = std_pbtc_povm(N, M, 2)
        assert len(povm) == comb(N, M)
        povm.validate()

    def test_m1_matches_single_port_pgm(self):
        # with no symmetrization the builder must reduce to the plain PGM
        a = std_pbtc_povm(3, 1, 2)
        b = complete(pgm({I: pbt_signal(I.smallest, 3, 2) for I in a.outcomes}))
        for I in a.outcomes:
            assert np.abs(a.outcomes[I].entries - b.outcomes[I].entries).max() < 1e-12

    def test_n2_m2_collapses_to_identity(self):
        # a single outcome absorbs the whole completion
        povm = std_pbtc_povm(2, 2, 2)
        assert len(povm) == 1
        el = next(iter(povm.outcomes.values()))
        assert np.abs(el.entries - np.eye(povm.layout.dim)).max() < 1e-10


class TestCloneMpbtPovm:
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
        key = PortSet(tuple(first["key"]["ports"]), first["key"]["N"])
        flat = np.array([re + 1j * im for re, im in first["entries"]])
        recon = flat.reshape(16, 16)
        assert np.abs(recon - povm.outcomes[key].entries).max() < 1e-15
