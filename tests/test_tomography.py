import itertools

import numpy as np
import pytest

import fanweave as fw
from fanweave.basis import pair_label
from fanweave.errors import InvariantError, UnsupportedConfigurationError

from helpers import random_density, random_pure_density


def tag_and_fan(basis, x0):
    tag = fw.tag_at(basis, x0)
    return tag, fw.fan_representation(basis, x0)


class TestMassEigenbasis:
    def test_weyl3_diagonal_mass_computational(self, weyl):
        tag, _ = tag_and_fan(weyl(3), "0,0")
        u = fw.mass_eigenbasis(tag, ["1,0", "2,0"])
        assert np.allclose(np.abs(u), np.eye(3), atol=1e-10)

    def test_weyl3_shift_mass_fourier(self, weyl):
        tag, _ = tag_and_fan(weyl(3), "0,0")
        u = fw.mass_eigenbasis(tag, ["0,1", "0,2"])
        fourier = fw.hadamard_fourier(3) / np.sqrt(3)
        overlap = np.abs(fourier.conj().T @ u)
        assert np.allclose(np.sort(overlap, axis=0)[-1], 1.0, atol=1e-10)

    def test_single_member(self, weyl):
        tag, _ = tag_and_fan(weyl(3), "0,0")
        u = fw.mass_eigenbasis(tag, ["1,1"])
        w = tag.operators["1,1"]
        assert np.linalg.norm(u.conj().T @ w @ u - np.diag(np.diag(u.conj().T @ w @ u))) <= 1e-8

    def test_noncommuting_rejected(self, weyl):
        tag, _ = tag_and_fan(weyl(3), "0,0")
        with pytest.raises(InvariantError, match="not commuting"):
            fw.mass_eigenbasis(tag, ["1,0", "0,1"])

    def test_unknown_member_rejected(self, weyl):
        tag, _ = tag_and_fan(weyl(3), "0,0")
        with pytest.raises(ValueError, match="not members"):
            fw.mass_eigenbasis(tag, ["9,9"])


class TestMubFromPartition:
    def test_weyl3_four_mubs(self, weyl):
        tag, fan = tag_and_fan(weyl(3), "0,0")
        system = fw.mub_from_partition(tag, fan.masses)
        assert len(system.bases) == 4
        assert fw.tomography.mub_unbiasedness_deviation(system.bases, 3) <= 1e-9

    def test_weyl5_six_mubs(self, weyl):
        tag, fan = tag_and_fan(weyl(5), "0,0")
        system = fw.mub_from_partition(tag, fan.masses)
        assert len(system.bases) == 6
        assert fw.tomography.mub_unbiasedness_deviation(system.bases, 5) <= 1e-9

    def test_pauli2_exact_cover_gives_five_mubs(self, pauli2):
        tag, fan = tag_and_fan(pauli2, "I,I")
        # exact-cover search over the 15 MASSes for 5 pairwise-disjoint ones
        partition = None
        for combo in itertools.combinations(fan.masses, 5):
            members = [x for mass in combo for x in mass]
            if len(set(members)) == 15:
                partition = combo
                break
        assert partition is not None
        system = fw.mub_from_partition(tag, partition)
        assert len(system.bases) == 5
        assert fw.tomography.mub_unbiasedness_deviation(system.bases, 4) <= 1e-9

    def test_rejects_non_partition(self, weyl):
        tag, fan = tag_and_fan(weyl(4), "0,0")
        with pytest.raises(ValueError, match="disjoint|partition"):
            fw.mub_from_partition(tag, fan.masses)

    def test_rejects_wrong_sizes(self, weyl):
        tag, fan = tag_and_fan(weyl(3), "0,0")
        parts = [fan.masses[0][:1], fan.masses[0][1:]] + list(fan.masses[1:])
        with pytest.raises(ValueError, match="size"):
            fw.mub_from_partition(tag, parts)


class TestMinimalCover:
    def test_weyl6_needs_all_twelve(self, weyl):
        _, fan = tag_and_fan(weyl(6), "0,0")
        cover = fw.minimal_cover(fan)
        assert len(cover.selected) == 12
        assert cover.certificate["optimal_size"] == 12
        assert cover.certificate["sizes_exhausted_below"] == 11

    def test_weyl4_drops_standalone_mass(self, weyl):
        _, fan = tag_and_fan(weyl(4), "0,0")
        cover = fw.minimal_cover(fan)
        assert len(cover.selected) == 6
        dropped = set(range(7)) - set(cover.selected)
        assert len(dropped) == 1
        red = fan.masses[dropped.pop()]
        assert set(red) == {"2,0", "0,2", "2,2"}

    def test_partition_fan_needs_everything(self, weyl):
        _, fan = tag_and_fan(weyl(5), "0,0")
        cover = fw.minimal_cover(fan)
        assert set(cover.selected) == set(range(len(fan.masses)))

    def test_cover_is_actually_a_cover(self, weyl, s3_basis):
        for basis, x0 in ((weyl(6), "0,0"), (s3_basis, "0,0")):
            _, fan = tag_and_fan(basis, x0)
            cover = fw.minimal_cover(fan)
            covered = set(itertools.chain.from_iterable(cover.masses))
            assert covered == set(fan.universe)


class TestBounds:
    def test_values(self):
        assert fw.s_bound(3) == 4
        assert fw.s_bound(4) == 6
        assert fw.s_bound(5) == 8
        assert fw.s_bound(6) == 12
        assert fw.refined_bound(6, 12) == 52
        assert fw.refined_bound(4, 6) == 16

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            fw.s_bound(2)

    def test_cover_sizes_match_bound_for_weyl_4_and_6(self, weyl):
        for d in (4, 6):
            _, fan = tag_and_fan(weyl(d), "0,0")
            assert len(fw.minimal_cover(fan).selected) == fw.s_bound(d)

    def test_refined_bound_closed_form_doubled_odd(self):
        # for d = 2r with r odd, plugging the crude bound in gives
        # 4 * (1 + 2(r-1) + (r-1)^3)
        for r in (3, 5, 7):
            d = 2 * r
            got = fw.refined_bound(d, fw.s_bound(d))
            assert got == 4 * (1 + 2 * (r - 1) + (r - 1) ** 3)


class TestCrudePovm:
    def test_weyl3_partition_normalization(self, weyl):
        tag, fan = tag_and_fan(weyl(3), "0,0")
        povm = fw.crude_povm(tag, fw.minimal_cover(fan))
        assert len(povm) == 9
        assert povm.n_pure == 8
        # every pure element has trace c = 1/(d+1) = 1/4
        for e, pure in zip(povm.elements, povm.pure_flags):
            if pure:
                assert abs(np.trace(e).real - 0.25) <= 1e-12

    def test_weyl4_size_and_completeness(self, weyl):
        tag, fan = tag_and_fan(weyl(4), "0,0")
        povm = fw.crude_povm(tag, fw.minimal_cover(fan))
        assert len(povm) == 3 * 6 + 1
        complete, rank = fw.is_info_complete(povm)
        assert complete and rank == 16

    def test_weyl6_size_and_completeness(self, weyl):
        tag, fan = tag_and_fan(weyl(6), "0,0")
        povm = fw.crude_povm(tag, fw.minimal_cover(fan))
        assert len(povm) == 5 * 12 + 1
        complete, rank = fw.is_info_complete(povm)
        assert complete and rank == 36

    def test_povm_axioms(self, weyl):
        tag, fan = tag_and_fan(weyl(4), "0,0")
        povm = fw.crude_povm(tag, fw.minimal_cover(fan))
        total = sum(povm.elements)
        assert np.linalg.norm(total - np.eye(4)) <= 1e-9
        for e in povm.elements:
            assert np.linalg.eigvalsh((e + e.conj().T) / 2).min() >= -1e-10
        # all but the completion element are rank one
        assert list(povm.pure_flags).count(False) == 1
        assert not povm.pure_flags[0]


class TestRefinedPovm:
    def test_weyl4_fifteen_pure_states(self, weyl):
        tag, fan = tag_and_fan(weyl(4), "0,0")
        povm = fw.refined_povm(tag, fw.minimal_cover(fan), "2,2")
        assert len(povm) == 16
        assert povm.n_pure == 15
        complete, rank = fw.is_info_complete(povm)
        assert complete and rank == 16

    def test_weyl4_any_hub_of_the_family(self, weyl):
        tag, fan = tag_and_fan(weyl(4), "0,0")
        for hub in ("2,0", "0,2", "2,2"):
            assert len(fw.refined_povm(tag, fw.minimal_cover(fan), hub)) == 16

    def test_weyl6_type_a_45(self, weyl):
        tag, fan = tag_and_fan(weyl(6), "0,0")
        povm = fw.refined_povm(tag, fw.minimal_cover(fan), "2,2")
        assert len(povm) == 45
        assert povm.n_pure == 44
        complete, rank = fw.is_info_complete(povm)
        assert complete and rank == 36

    def test_weyl6_type_b_52(self, weyl):
        tag, fan = tag_and_fan(weyl(6), "0,0")
        povm = fw.refined_povm(tag, fw.minimal_cover(fan), "3,3")
        assert len(povm) == 52
        assert povm.n_pure == 51
        complete, rank = fw.is_info_complete(povm)
        assert complete and rank == 36

    def test_simple_spectrum_hub_rejected(self, weyl):
        tag, fan = tag_and_fan(weyl(4), "0,0")
        with pytest.raises(ValueError, match="simple spectrum"):
            fw.refined_povm(tag, fw.minimal_cover(fan), "1,0")

    def test_hub_outside_system_rejected(self, weyl):
        tag, fan = tag_and_fan(weyl(4), "0,0")
        with pytest.raises(ValueError, match="not a member"):
            fw.refined_povm(tag, fw.minimal_cover(fan), "0,0")

    def test_unsupported_configuration_raises(self, s3_basis):
        # the S3 fan's singleton MASSes cannot be grouped by any hub
        tag, fan = tag_and_fan(s3_basis, "0,0")
        with pytest.raises(UnsupportedConfigurationError, match="partition"):
            fw.refined_povm(tag, fw.minimal_cover(fan), "3,0")

    def test_hub_in_single_cover_mass_rejected(self, pauli2):
        # the minimal pauli2 cover is an exact cover: every hub lies in one MASS
        tag, fan = tag_and_fan(pauli2, "I,I")
        with pytest.raises(ValueError, match="at least 2"):
            fw.refined_povm(tag, fw.minimal_cover(fan), "X,X")

    def test_template_generalizes_when_groups_partition(self, weyl):
        # d=8, hub (4,4): the same block-sharing structure appears and is verified
        tag, fan = tag_and_fan(weyl(8), "0,0")
        povm = fw.refined_povm(tag, fw.minimal_cover(fan), "4,4")
        complete, rank = fw.is_info_complete(povm)
        assert complete and rank == 64
        assert len(povm) < (8 - 1) * len(fw.minimal_cover(fan).selected) + 1


class TestInfoComplete:
    def test_single_basis_rank_d(self, weyl):
        d = 3
        povm = fw.make_povm(d, [np.diag([1.0 if i == j else 0.0 for j in range(d)]) for i in range(d)])
        complete, rank = fw.is_info_complete(povm)
        assert not complete
        assert rank == d
        assert povm.sum_residual == 0.0 and povm.min_eigenvalue == 0.0

    def test_crude_povms_are_complete(self, weyl):
        for d in (3, 4):
            tag, fan = tag_and_fan(weyl(d), "0,0")
            povm = fw.crude_povm(tag, fw.minimal_cover(fan))
            complete, rank = fw.is_info_complete(povm)
            assert complete and rank == d * d


class TestReconstruct:
    def test_exact_round_trip_weyl3(self, weyl):
        tag, fan = tag_and_fan(weyl(3), "0,0")
        povm = fw.crude_povm(tag, fw.minimal_cover(fan))
        rng = np.random.default_rng(41)
        for _ in range(20):
            rho = random_density(3, rng)
            est, err = fw.reconstruct(rho, povm)
            assert err <= 1e-8

    def test_maximally_mixed(self, weyl):
        tag, fan = tag_and_fan(weyl(3), "0,0")
        povm = fw.crude_povm(tag, fw.minimal_cover(fan))
        est, err = fw.reconstruct(np.eye(3) / 3, povm)
        assert np.linalg.norm(est - np.eye(3) / 3) <= 1e-10

    def test_pure_states_refined_weyl4(self, weyl):
        tag, fan = tag_and_fan(weyl(4), "0,0")
        povm = fw.refined_povm(tag, fw.minimal_cover(fan), "2,2")
        rng = np.random.default_rng(43)
        for _ in range(20):
            rho = random_pure_density(4, rng)
            est, err = fw.reconstruct(rho, povm)
            assert err <= 1e-8

    def test_incomplete_povm_rejected(self):
        povm = fw.make_povm(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(ValueError, match="informationally complete"):
            fw.reconstruct(np.eye(2) / 2, povm)
