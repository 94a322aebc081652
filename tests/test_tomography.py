import itertools

import numpy as np
import pytest

import fanweave as fw
from fanweave import tomography as tomo
from fanweave.basis import pair_label
from fanweave.combinatorics import LATIN_VARIANTS
from fanweave.errors import InvariantError, UnsupportedConfigurationError

from helpers import brute_force_cover, projector_refined_povm, random_density, random_pure_density


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


def random_set_fan(rng) -> fw.Fan:
    """A random set system as a fan, with nested sets and sets that agree off a covered part."""
    n = int(rng.integers(5, 13))
    sets = [set(rng.choice(n, int(rng.integers(2, n // 2 + 2)), replace=False).tolist())
            for _ in range(int(rng.integers(4, 10)))]
    for _ in range(int(rng.integers(1, 4))):  # subsets of existing sets
        base = sorted(sets[int(rng.integers(len(sets)))])
        sets.append(set(rng.choice(base, int(rng.integers(1, len(base) + 1)), replace=False).tolist()))
    for _ in range(int(rng.integers(1, 4))):  # a set grown by part of another: equal once that is covered
        a, b = (sets[int(i)] for i in rng.integers(len(sets), size=2))
        sets.append(a | set(rng.choice(sorted(b), int(rng.integers(1, len(b) + 1)), replace=False).tolist()))
    for x in set(range(n)).difference(*sets):
        sets[int(rng.integers(len(sets)))].add(x)
    order = rng.permutation(len(sets))
    return fw.Fan(universe=tuple(f"e{x}" for x in range(n)),
                  masses=tuple(tuple(f"e{x}" for x in sorted(sets[i])) for i in order))


@pytest.fixture(scope="module")
def cover_bases(weyl, pauli2):
    bases = {f"weyl{d}": weyl(d) for d in range(3, 9)}
    for variant in LATIN_VARIANTS:
        bases[f"s3-{variant}"] = fw.build_shift_multiply(fw.latin_from_group(fw.group_s3(), variant),
                                                         fw.fourier_family(6))
    bases["pauli2"] = pauli2
    z2xz2 = fw.group_product(fw.group_cyclic(2), fw.group_cyclic(2))
    bases["z2xz2"] = fw.build_shift_multiply(fw.latin_from_group(z2xz2, "e"), fw.fourier_family(4))
    return bases


class TestCoverReductions:
    def test_matches_oracle_on_every_tag(self, cover_bases):
        for name, basis in cover_bases.items():
            for x0 in basis.labels:
                fan = fw.fan_representation(basis, x0)
                assert fw.minimal_cover(fan).selected == brute_force_cover(fan), (name, x0)

    def test_matches_oracle_on_s3xz2(self, s3xz2_basis):
        fan = fw.fan_representation(s3xz2_basis, "4,0")
        assert fw.minimal_cover(fan).selected == brute_force_cover(fan)

    def test_matches_oracle_on_random_set_systems(self):
        searched = forced = dominated = 0
        for seed in range(600):
            fan = random_set_fan(np.random.default_rng(seed))
            cover = fw.minimal_cover(fan)
            assert cover.selected == brute_force_cover(fan), seed
            assert cover.certificate["optimal_size"] == len(cover.selected)
            searched += cover.certificate["nodes_explored"] > 1
            forced += cover.certificate["forced"] > 0
            dominated += cover.certificate["dominated"] > 0
        # both reductions fire, and many systems leave a remainder to search
        assert min(searched, forced, dominated) >= 200

    def test_certificate_counts_reductions(self, weyl):
        _, fan = tag_and_fan(weyl(8), "0,0")
        cert = fw.minimal_cover(fan).certificate
        assert cert["optimal_size"] == 12
        assert cert["sizes_exhausted_below"] == 11
        assert (cert["forced"], cert["dominated"], cert["nodes_explored"]) == (12, 3, 1)
        assert "forced" in cert["method"] and "dominated" in cert["method"]

    def test_node_budget_refuses(self, monkeypatch):
        labels = tuple("abcdef")
        fan = fw.Fan(universe=labels, masses=tuple((labels[i], labels[(i + 1) % 6]) for i in range(6)))
        cover = fw.minimal_cover(fan)
        assert cover.selected == (0, 2, 4)
        assert cover.certificate["forced"] == cover.certificate["dominated"] == 0
        assert cover.certificate["nodes_explored"] > 5
        monkeypatch.setattr(tomo, "_COVER_NODE_BUDGET", 5)
        with pytest.raises(UnsupportedConfigurationError, match=r"6 MASSes.*5 nodes explored"):
            fw.minimal_cover(fan)


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


def refined_outcome(build, tag, cover, hub):
    """Elements of the refined POVM, or the type and message of its refusal."""
    try:
        return build(tag, cover, hub).elements
    except ValueError as exc:
        return type(exc), str(exc)


class TestRefinedMatchesProjectorOracle:
    @pytest.mark.parametrize("d, hubs", [(4, None), (6, None), (8, None), (12, ("6,6", "4,4", "3,3"))])
    def test_same_elements_and_refusals(self, weyl, d, hubs, monkeypatch):
        tag, fan = tag_and_fan(weyl(d), "0,0")
        cover = fw.minimal_cover(fan)
        # both constructions, for every hub, diagonalize the same cover MASSes: do it once each
        eigenbases = {}

        def cached_eigenbasis(tag, mass, rng_seed=0):
            if tuple(mass) not in eigenbases:
                eigenbases[tuple(mass)] = fw.mass_eigenbasis(tag, mass, rng_seed=rng_seed)
            return eigenbases[tuple(mass)]

        monkeypatch.setattr(tomo, "mass_eigenbasis", cached_eigenbasis)
        built = 0
        for hub in hubs or tag.labels:
            ours = refined_outcome(fw.refined_povm, tag, cover, hub)
            oracle = refined_outcome(projector_refined_povm, tag, cover, hub)
            if isinstance(oracle[0], type):
                assert ours == oracle, hub
            else:
                built += 1
                assert len(ours) == len(oracle) and all(np.array_equal(a, b) for a, b in zip(ours, oracle)), hub
        assert built > 0


class TestMakePovmRefusals:
    # N is anti-Hermitian, so an element carrying it is not Hermitian while the sum stays I
    N = np.array([[0.0, 0.3], [-0.3, 0.0]])

    def test_sum_not_identity(self):
        with pytest.raises(InvariantError, match="sum to identity only within 3.536e-01"):
            fw.make_povm(2, [np.eye(2) / 2, np.eye(2) / 4])

    def test_empty_element_list(self):
        with pytest.raises(InvariantError, match="sum to identity only within 1.414e[+]00"):
            fw.make_povm(2, [])

    def test_not_hermitian(self):
        with pytest.raises(InvariantError, match="POVM element 1 is not Hermitian"):
            fw.make_povm(2, [np.eye(2) / 2, np.eye(2) / 2 + self.N, -self.N])

    def test_negative_eigenvalue(self):
        with pytest.raises(InvariantError, match="POVM element 1 has negative eigenvalue -1.000e-01"):
            fw.make_povm(2, [np.diag([1.1, 0.5]), np.diag([-0.1, 0.5])])

    def test_first_failing_element_is_named(self):
        psd_fail, herm_fail = np.diag([-0.1, 0.5]), np.diag([1.1, 0.5]) + self.N
        with pytest.raises(InvariantError, match="POVM element 0 has negative eigenvalue -1.000e-01"):
            fw.make_povm(2, [psd_fail, herm_fail, -self.N])
        with pytest.raises(InvariantError, match="POVM element 0 is not Hermitian"):
            fw.make_povm(2, [herm_fail, psd_fail, -self.N])

    def test_hermitian_test_comes_first_within_an_element(self):
        both = np.diag([-0.1, 0.5]) + self.N
        with pytest.raises(InvariantError, match="POVM element 0 is not Hermitian"):
            fw.make_povm(2, [both, np.diag([1.1, 0.5]) - self.N])

    def test_non_finite_element(self):
        with pytest.raises(ValueError, match="POVM element 1 contains non-finite entries"):
            fw.make_povm(2, [np.diag([1.0, 0.0]), np.diag([0.0, np.nan])])


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

    def test_non_finite_state_rejected(self, weyl):
        tag, fan = tag_and_fan(weyl(3), "0,0")
        povm = fw.crude_povm(tag, fw.minimal_cover(fan))
        rho = np.eye(3, dtype=complex) / 3
        rho[0, 1] = np.nan
        with pytest.raises(ValueError, match="state contains non-finite entries"):
            fw.reconstruct(rho, povm)

    def test_incomplete_povm_rejected(self):
        povm = fw.make_povm(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(ValueError, match="informationally complete"):
            fw.reconstruct(np.eye(2) / 2, povm)
