import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possinfo import (
    ConvergenceSeries,
    DiscreteDistribution,
    JointDistribution,
    LevelMeasure,
    PiecewisePossibility,
    Tau,
    extend,
    invert_permutation,
    join,
    marginals,
    meet,
    min_product,
    permute,
    possibility_of_subset,
    u_uncertainty,
)

from conftest import random_distribution

LN2 = math.log(2.0)


VALUE_CLASSES = {
    "DiscreteDistribution": (
        lambda: DiscreteDistribution(("a", "b"), (1.0, 0.5)),
        ("labels", "values", "is_normalized"),
    ),
    "JointDistribution": (
        lambda: JointDistribution(("a",), ("b", "c"), ((1.0, 0.5),)),
        ("row_labels", "col_labels", "values", "is_normalized"),
    ),
    "PiecewisePossibility": (
        lambda: PiecewisePossibility([(0, 1), (1, 0)]),
        ("points", "xs", "vs", "max_value", "is_normalized"),
    ),
    "LevelMeasure": (
        lambda: LevelMeasure((0.0, 1.0), ((0.0, -1.0),), total=1.0),
        ("bounds", "coeffs", "total"),
    ),
    "Tau": (lambda: Tau([(0, 0), (1, 1)]), ("ts", "taus")),
    "ConvergenceSeries": (lambda: ConvergenceSeries([(10, 1.5, 0.8)]), ("entries",)),
}


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_classes_are_immutable(name):
    make, attributes = VALUE_CLASSES[name]
    value = make()
    for attribute in attributes:
        with pytest.raises(AttributeError):
            setattr(value, attribute, None)


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
@pytest.mark.parametrize(
    "clone",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_value_classes_pickle_and_copy(name, clone):
    value = VALUE_CLASSES[name][0]()
    back = clone(value)
    assert type(back) is type(value)
    assert back == value


class TestConstruction:
    def test_normalized_flag_set(self):
        d = DiscreteDistribution(("a", "b"), (1.0, 0.5))
        assert d.is_normalized

    def test_subnormal_flag_false(self):
        d = DiscreteDistribution(("a", "b"), (0.5, 0.5))
        assert not d.is_normalized

    def test_value_out_of_range(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            DiscreteDistribution(("a",), (1.2,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            DiscreteDistribution(("a", "b"), (1.0,))

    def test_duplicate_label(self):
        with pytest.raises(ValueError, match="distinct"):
            DiscreteDistribution(("a", "a"), (1.0, 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((), ())

    def test_normalization_tolerance(self):
        assert DiscreteDistribution(("a",), (1.0 - 1e-10,)).is_normalized
        assert not DiscreteDistribution(("a",), (1.0 - 1e-6,)).is_normalized


class TestSubsetPossibility:
    def setup_method(self):
        self.d = DiscreteDistribution(("a", "b", "c"), (1.0, 0.5, 0.2))

    def test_pair(self):
        assert possibility_of_subset(self.d, {"b", "c"}) == 0.5

    def test_whole_domain_of_normalized(self):
        assert possibility_of_subset(self.d, ("a", "b", "c")) == 1.0

    def test_singleton(self):
        assert possibility_of_subset(self.d, ("c",)) == 0.2

    def test_empty_subset(self):
        with pytest.raises(ValueError, match="nonempty"):
            possibility_of_subset(self.d, ())

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            possibility_of_subset(self.d, ("a", "z"))


class TestMinProduct:
    def test_entrywise_min(self):
        d1 = DiscreteDistribution(("a", "b"), (1.0, 0.6))
        d2 = DiscreteDistribution(("c", "d"), (1.0, 0.3))
        j = min_product(d1, d2)
        assert j.values == ((1.0, 0.3), (0.6, 0.3))
        assert j.is_normalized

    def test_singleton_factor(self):
        d1 = DiscreteDistribution(("a",), (1.0,))
        d2 = DiscreteDistribution(("c", "d"), (1.0, 0.5))
        assert min_product(d1, d2).values == ((1.0, 0.5),)

    def test_joint_u_matches_sum(self):
        # hand evaluation: flattened joint sorts to (1, .6, .3, .3), whose
        # U-sum telescopes to 0.9 ln 2
        d1 = DiscreteDistribution(("a", "b"), (1.0, 0.6))
        d2 = DiscreteDistribution(("c", "d"), (1.0, 0.3))
        u = u_uncertainty(min_product(d1, d2))
        assert u == pytest.approx(0.9 * LN2, abs=1e-12)
        assert u == pytest.approx(u_uncertainty(d1) + u_uncertainty(d2), abs=1e-12)

    def test_subnormal_inputs_permitted(self):
        # the formula extends verbatim to subnormal factors, but marginal
        # recovery is only guaranteed for normalized ones
        d1 = DiscreteDistribution(("a",), (0.5,))
        d2 = DiscreteDistribution(("c", "d"), (0.8, 0.3))
        j = min_product(d1, d2)
        assert j.values == ((0.5, 0.3),)
        assert not j.is_normalized
        m1, m2 = marginals(j)
        assert m1.values == (0.5,)
        assert m2.values == (0.5, 0.3)  # not d2: the cap is visible

    def test_flatten_is_valid_distribution(self):
        d1 = DiscreteDistribution(("a", "b"), (1.0, 0.6))
        d2 = DiscreteDistribution(("c", "d"), (0.9, 0.3))
        flat = min_product(d1, d2).flatten()
        assert flat.labels == (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))
        assert flat.values == (0.9, 0.3, 0.6, 0.3)


class TestMarginals:
    def test_row_col_max(self):
        j = JointDistribution(("a", "b"), ("c", "d"), ((1.0, 0.3), (0.6, 0.3)))
        m1, m2 = marginals(j)
        assert m1.values == (1.0, 0.6)
        assert m2.values == (1.0, 0.3)

    def test_one_by_one(self):
        j = JointDistribution(("a",), ("c",), ((0.5,),))
        m1, m2 = marginals(j)
        assert m1.values == (0.5,) and m2.values == (0.5,)

    def test_recovers_normalized_factors(self, rng):
        for _ in range(200):
            n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            d1 = random_distribution(rng, n1)
            d2 = random_distribution(rng, n2, labels=tuple(f"y{i}" for i in range(n2)))
            m1, m2 = marginals(min_product(d1, d2))
            assert m1 == d1 and m2 == d2


class TestExtend:
    def test_zero_padding(self):
        d = DiscreteDistribution(("a", "b"), (1.0, 0.5))
        assert extend(d, ("a", "b", "c")).values == (1.0, 0.5, 0.0)

    def test_identity_on_same_labels(self):
        d = DiscreteDistribution(("a", "b"), (1.0, 0.5))
        assert extend(d, ("a", "b")) == d

    def test_missing_original_label(self):
        d = DiscreteDistribution(("a", "b"), (1.0, 0.5))
        with pytest.raises(ValueError, match="missing"):
            extend(d, ("a", "c"))

    def test_u_invariant_under_extension(self, rng):
        for _ in range(100):
            d = random_distribution(rng, int(rng.integers(1, 6)))
            pad = tuple(f"z{i}" for i in range(int(rng.integers(1, 4))))
            assert u_uncertainty(extend(d, d.labels + pad)) == pytest.approx(
                u_uncertainty(d), abs=1e-12
            )

    def test_restriction_inverts_extension(self):
        d = DiscreteDistribution(("a", "b"), (0.8, 0.5))
        e = extend(d, ("a", "b", "c"))
        restricted = DiscreteDistribution(d.labels, e.values[:2])
        assert restricted == d


class TestPermute:
    def test_index_shuffle(self):
        d = DiscreteDistribution(("a", "b", "c"), (1.0, 0.5, 0.2))
        # value at position i comes from position s[i]
        assert permute(d, (2, 0, 1)).values == (0.2, 1.0, 0.5)

    def test_identity(self):
        d = DiscreteDistribution(("a", "b", "c"), (1.0, 0.5, 0.2))
        assert permute(d, (0, 1, 2)) == d

    def test_labels_stay_in_place(self):
        d = DiscreteDistribution(("a", "b"), (1.0, 0.5))
        assert permute(d, (1, 0)).labels == ("a", "b")

    def test_non_bijection_rejected(self):
        d = DiscreteDistribution(("a", "b"), (1.0, 0.5))
        with pytest.raises(ValueError, match="bijection"):
            permute(d, (0, 0))

    def test_size_mismatch(self):
        d = DiscreteDistribution(("a", "b"), (1.0, 0.5))
        with pytest.raises(ValueError, match="size"):
            permute(d, (0, 1, 2))

    @pytest.mark.parametrize("mapping", [(1.5, 0.0), ("1", "0"), (1.0, 0.0)])
    def test_non_integer_entries_rejected(self, mapping):
        d = DiscreteDistribution(("a", "b"), (1.0, 0.5))
        with pytest.raises(TypeError):
            permute(d, mapping)
        with pytest.raises(TypeError):
            invert_permutation(mapping)

    def test_inverse_of_an_iterator(self):
        assert invert_permutation(iter([1, 2, 0])) == (2, 0, 1)

    def test_inverse_roundtrip(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            d = random_distribution(rng, n)
            s = tuple(rng.permutation(n).tolist())
            assert permute(permute(d, s), invert_permutation(s)) == d

    def test_u_invariant(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            d = random_distribution(rng, n)
            s = tuple(rng.permutation(n).tolist())
            assert u_uncertainty(permute(d, s)) == pytest.approx(
                u_uncertainty(d), abs=1e-12
            )


values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=6
)


@st.composite
def same_label_pairs(draw):
    v1 = draw(values_strategy)
    v2 = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=len(v1),
            max_size=len(v1),
        )
    )
    labels = tuple(f"x{i}" for i in range(len(v1)))
    return DiscreteDistribution(labels, v1), DiscreteDistribution(labels, v2)


class TestMeetJoin:
    def test_meet_example(self):
        d1 = DiscreteDistribution(("a", "b", "c"), (1.0, 0.5, 0.0))
        d2 = DiscreteDistribution(("a", "b", "c"), (0.5, 1.0, 0.5))
        m = meet(d1, d2)
        assert m.values == (0.5, 0.5, 0.0)
        assert not m.is_normalized

    def test_join_example(self):
        d1 = DiscreteDistribution(("a", "b", "c"), (1.0, 0.5, 0.0))
        d2 = DiscreteDistribution(("a", "b", "c"), (0.5, 1.0, 0.5))
        assert join(d1, d2).values == (1.0, 1.0, 0.5)

    def test_idempotent(self):
        d = DiscreteDistribution(("a", "b"), (0.7, 0.3))
        assert meet(d, d) == d and join(d, d) == d

    def test_label_mismatch(self):
        d1 = DiscreteDistribution(("a", "b"), (1.0, 0.5))
        d2 = DiscreteDistribution(("b", "a"), (1.0, 0.5))
        with pytest.raises(ValueError, match="label mismatch"):
            meet(d1, d2)

    @settings(max_examples=200)
    @given(same_label_pairs())
    def test_lattice_sandwich(self, pair):
        d1, d2 = pair
        m, j = meet(d1, d2), join(d1, d2)
        for lo, mid, hi in zip(m.values, d1.values, j.values):
            assert lo <= mid <= hi

    @settings(max_examples=200)
    @given(same_label_pairs())
    def test_commutative(self, pair):
        d1, d2 = pair
        assert meet(d1, d2) == meet(d2, d1)
        assert join(d1, d2) == join(d2, d1)

    def test_associative(self, rng):
        labels = tuple(f"x{i}" for i in range(4))
        for _ in range(100):
            a = random_distribution(rng, 4, labels=labels)
            b = random_distribution(rng, 4, labels=labels)
            c = random_distribution(rng, 4, labels=labels)
            assert meet(meet(a, b), c) == meet(a, meet(b, c))
            assert join(join(a, b), c) == join(a, join(b, c))

    def test_join_of_normalized_is_normalized(self, rng):
        for _ in range(50):
            labels = tuple(f"x{i}" for i in range(4))
            d1 = random_distribution(rng, 4, labels=labels)
            d2 = random_distribution(rng, 4, labels=labels)
            assert join(d1, d2).is_normalized
