import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import random_mass_assignments
from oracles import (
    ContourFunction,
    Frame,
    MassFunction,
    ProbabilityVector,
    TotalConflictError,
    bayes_contour_combine,
    bayesian,
    bel,
    categorical,
    consonant_from_contour,
    contour_of,
    dempster_combine,
    pl,
    vacuous,
)


def mass(frame_size, assignments):
    return MassFunction(Frame(frame_size), assignments)


class TestConstruction:
    def test_frame_bounds(self):
        Frame(1)
        Frame(64)
        with pytest.raises(ValueError):
            Frame(0)
        with pytest.raises(ValueError):
            Frame(65)

    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            mass(2, {0b01: 0.5, 0b10: 0.4})

    def test_no_mass_on_empty_set(self):
        with pytest.raises(ValueError, match="empty"):
            mass(2, {0b00: 0.5, 0b11: 0.5})

    def test_no_mass_outside_frame(self):
        with pytest.raises(ValueError, match="outside"):
            mass(2, {0b100: 1.0})

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            mass(2, {0b01: 1.2, 0b10: -0.2})

    def test_contour_needs_positive_entry(self):
        with pytest.raises(ValueError):
            ContourFunction(Frame(2), np.zeros(2))
        with pytest.raises(ValueError):
            ContourFunction(Frame(2), np.array([0.5, 1.2]))

    def test_probability_vector_invariants(self):
        with pytest.raises(ValueError):
            ProbabilityVector(Frame(2), np.array([0.7, 0.4]))
        with pytest.raises(ValueError):
            ProbabilityVector(Frame(2), np.array([1.2, -0.2]))


class TestBelPl:
    def test_categorical_certainty(self):
        m = categorical(Frame(3), 0b001)
        assert bel(m, 0b001) == 1.0

    def test_vacuous_gives_no_support(self):
        m = vacuous(Frame(3))
        for subset in (0b001, 0b011, 0b101):
            assert bel(m, subset) == 0.0

    def test_bel_power_set_oracle(self):
        # m({t1}) = 0.5, m({t1, t2}) = 0.5 on a 3-element frame
        m = mass(3, {0b001: 0.5, 0b011: 0.5})
        assert_allclose(bel(m, 0b011), 1.0)

    def test_pl_vacuous_everything_plausible(self):
        m = vacuous(Frame(4))
        for subset in (0b0001, 0b1100, 0b1111):
            assert pl(m, subset) == 1.0

    def test_pl_bayesian_is_probability(self):
        pv = ProbabilityVector(Frame(3), np.array([0.2, 0.3, 0.5]))
        m = bayesian(pv)
        assert_allclose(pl(m, 0b110), 0.8)

    def test_pl_power_set_oracle(self):
        m = mass(3, {0b001: 0.5, 0b011: 0.5})
        assert_allclose(pl(m, 0b010), 0.5)

    def test_empty_set_rejected(self):
        m = vacuous(Frame(2))
        with pytest.raises(ValueError):
            bel(m, 0)
        with pytest.raises(ValueError):
            pl(m, 0)

    def test_subset_outside_frame_rejected(self):
        m = vacuous(Frame(2))
        with pytest.raises(ValueError):
            pl(m, 0b100)


class TestContour:
    def test_vacuous_contour(self):
        assert_allclose(contour_of(vacuous(Frame(3))).pl, np.ones(3))

    def test_bayesian_contour(self):
        pv = ProbabilityVector(Frame(3), np.array([0.2, 0.3, 0.5]))
        assert_allclose(contour_of(bayesian(pv)).pl, [0.2, 0.3, 0.5])

    def test_contour_summation_oracle(self):
        m = mass(3, {0b001: 0.5, 0b011: 0.5})
        assert_allclose(contour_of(m).pl, [1.0, 0.5, 0.0])

    def test_consonant_realization_roundtrip(self, rng):
        for _ in range(50):
            p = int(rng.integers(1, 5))
            v = rng.random(p)
            v[rng.integers(p)] = 1.0
            cf = ContourFunction(Frame(p), v)
            m = consonant_from_contour(cf)
            assert_allclose(contour_of(m).pl, cf.pl, atol=1e-14)

    def test_consonant_requires_unit_max(self):
        with pytest.raises(ValueError, match="max"):
            consonant_from_contour(ContourFunction(Frame(2), np.array([0.8, 0.2])))


class TestDempster:
    def test_vacuous_is_neutral(self, rng):
        frame = Frame(3)
        m1 = MassFunction(frame, random_mass_assignments(3, rng))
        combined, k = dempster_combine(m1, vacuous(frame))
        assert k == 0.0
        assert set(combined.assignments) == set(m1.assignments)
        for mask, value in m1.assignments.items():
            assert_allclose(combined.assignments[mask], value)

    def test_disjoint_categorical_conflict(self):
        frame = Frame(2)
        with pytest.raises(TotalConflictError):
            dempster_combine(categorical(frame, 0b01), categorical(frame, 0b10))

    def test_intersection_table_oracle(self):
        # worked two-source example on a 2-element frame
        m1 = mass(2, {0b01: 0.6, 0b11: 0.4})
        m2 = mass(2, {0b10: 0.5, 0b11: 0.5})
        combined, k = dempster_combine(m1, m2)
        assert_allclose(k, 0.30)
        assert_allclose(combined.assignments[0b01], 0.30 / 0.70)
        assert_allclose(combined.assignments[0b10], 0.20 / 0.70)
        assert_allclose(combined.assignments[0b11], 0.20 / 0.70)

    def test_commutative(self, rng):
        frame = Frame(4)
        for _ in range(25):
            m1 = MassFunction(frame, random_mass_assignments(4, rng))
            m2 = MassFunction(frame, random_mass_assignments(4, rng))
            a, ka = dempster_combine(m1, m2)
            b, kb = dempster_combine(m2, m1)
            assert_allclose(ka, kb)
            assert set(a.assignments) == set(b.assignments)
            for mask in a.assignments:
                assert_allclose(a.assignments[mask], b.assignments[mask], atol=1e-12)

    def test_associative(self, rng):
        checked = 0
        while checked < 25:
            size = int(rng.integers(2, 5))
            frame = Frame(size)
            ms = [MassFunction(frame, random_mass_assignments(size, rng)) for _ in range(3)]
            try:
                left, _ = dempster_combine(dempster_combine(ms[0], ms[1])[0], ms[2])
                right, _ = dempster_combine(ms[0], dempster_combine(ms[1], ms[2])[0])
            except TotalConflictError:
                continue
            checked += 1
            assert set(left.assignments) == set(right.assignments)
            for mask in left.assignments:
                assert_allclose(left.assignments[mask], right.assignments[mask], atol=1e-12)

    def test_frame_mismatch(self):
        with pytest.raises(ValueError):
            dempster_combine(vacuous(Frame(2)), vacuous(Frame(3)))


class TestBayesContourCombine:
    def test_vacuous_contour_neutral(self):
        pv = ProbabilityVector(Frame(3), np.array([0.2, 0.3, 0.5]))
        cf = ContourFunction(Frame(3), np.ones(3))
        out, k = bayes_contour_combine(pv, cf)
        assert_allclose(out.p, pv.p)
        assert k == 0.0

    def test_certain_label(self):
        pv = ProbabilityVector(Frame(3), np.array([1, 1, 1]) / 3)
        cf = ContourFunction(Frame(3), np.array([1.0, 0.0, 0.0]))
        out, k = bayes_contour_combine(pv, cf)
        assert_allclose(out.p, [1.0, 0.0, 0.0])
        assert_allclose(k, 2.0 / 3.0)

    def test_total_conflict(self):
        pv = ProbabilityVector(Frame(2), np.array([1.0, 0.0]))
        cf = ContourFunction(Frame(2), np.array([0.0, 1.0]))
        with pytest.raises(TotalConflictError):
            bayes_contour_combine(pv, cf)

    def test_matches_full_dempster_combination(self, rng):
        # fast path versus power-set route through a consonant realization
        for _ in range(200):
            p = int(rng.integers(1, 5))
            frame = Frame(p)
            probs = rng.dirichlet(np.ones(p))
            plv = rng.random(p)
            plv[rng.integers(p)] = 1.0
            pv = ProbabilityVector(frame, probs)
            cf = ContourFunction(frame, plv)
            fast, k_fast = bayes_contour_combine(pv, cf)
            full, k_full = dempster_combine(bayesian(pv), consonant_from_contour(cf))
            assert_allclose(fast.p, contour_of(full).pl, atol=1e-12)
            assert_allclose(k_fast, k_full, atol=1e-12)
            assert_allclose(k_fast, 1.0 - float(np.sum(probs * plv)), atol=1e-12)

    def test_output_is_probability_vector(self, rng):
        for _ in range(50):
            p = int(rng.integers(2, 5))
            pv = ProbabilityVector(Frame(p), rng.dirichlet(np.ones(p)))
            cf = ContourFunction(Frame(p), np.clip(rng.random(p) + 0.05, 0, 1))
            out, _ = bayes_contour_combine(pv, cf)
            assert np.all(out.p >= 0)
            assert_allclose(out.p.sum(), 1.0, atol=1e-12)


@st.composite
def mass_functions(draw, max_size=4):
    size = draw(st.integers(min_value=1, max_value=max_size))
    full = (1 << size) - 1
    n_focal = draw(st.integers(min_value=1, max_value=min(4, full)))
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=full), min_size=n_focal, max_size=n_focal, unique=True)
    )
    weights = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=len(masks), max_size=len(masks))
    )
    total = sum(weights)
    return MassFunction(Frame(size), {m: w / total for m, w in zip(masks, weights)})


class TestDuality:
    @given(mass_functions())
    @settings(max_examples=200, deadline=None)
    def test_bel_le_pl_and_complement_duality(self, m):
        full = m.frame.full
        for subset in range(1, full + 1):
            b, q = bel(m, subset), pl(m, subset)
            assert b <= q + 1e-12
            comp = full & ~subset
            if comp:
                assert abs(q - (1.0 - bel(m, comp))) < 1e-12

    @given(mass_functions())
    @settings(max_examples=100, deadline=None)
    def test_contour_entries_bounded(self, m):
        cf = contour_of(m)
        assert np.all(cf.pl >= -1e-15)
        assert np.all(cf.pl <= 1 + 1e-12)
