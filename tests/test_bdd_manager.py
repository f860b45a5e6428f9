"""Unit tests for the ROBDD engine: canonicity and the semantic operations."""

import pytest

from repro.bdd import FALSE, TRUE, BddError, BddManager


@pytest.fixture
def manager():
    return BddManager(num_vars=4)


class TestBasics:
    def test_terminals(self, manager):
        assert FALSE == 0 and TRUE == 1
        assert manager.apply_not(TRUE) == FALSE
        assert manager.apply_not(FALSE) == TRUE

    def test_var_and_nvar_are_complements(self, manager):
        x = manager.var(0)
        assert manager.apply_not(x) == manager.nvar(0)
        assert manager.apply_or(x, manager.nvar(0)) == TRUE
        assert manager.apply_and(x, manager.nvar(0)) == FALSE

    def test_out_of_range_variable_rejected(self, manager):
        with pytest.raises(BddError):
            manager.var(99)
        with pytest.raises(BddError):
            manager.nvar(-1)

    def test_add_var_extends_order(self):
        manager = BddManager()
        index = manager.add_var("custom")
        assert manager.var_name(index) == "custom"
        assert manager.num_vars == 1

    def test_declared_variables_get_default_names(self):
        manager = BddManager(num_vars=3)
        assert [manager.var_name(i) for i in range(3)] == ["x0", "x1", "x2"]
        assert manager.var_name(manager.add_var()) == "x3"


class TestCanonicity:
    def test_hash_consing_makes_equal_functions_identical(self, manager):
        a, b = manager.var(0), manager.var(1)
        left = manager.apply_or(manager.apply_and(a, b), manager.apply_and(a, manager.apply_not(b)))
        assert left == a  # (a and b) or (a and not b) == a

    def test_demorgan(self, manager):
        a, b = manager.var(0), manager.var(1)
        lhs = manager.apply_not(manager.apply_and(a, b))
        rhs = manager.apply_or(manager.apply_not(a), manager.apply_not(b))
        assert lhs == rhs

    def test_commutativity_gives_same_node(self, manager):
        a, b = manager.var(2), manager.var(3)
        assert manager.apply_and(a, b) == manager.apply_and(b, a)

    def test_xor_and_iff(self, manager):
        a, b = manager.var(0), manager.var(1)
        assert manager.apply_xor(a, a) == FALSE
        assert manager.apply_iff(a, a) == TRUE
        assert manager.apply_not(manager.apply_xor(a, b)) == manager.apply_iff(a, b)

    def test_implies(self, manager):
        a = manager.var(0)
        assert manager.apply_implies(FALSE, a) == TRUE
        assert manager.apply_implies(a, TRUE) == TRUE
        assert manager.apply_implies(a, FALSE) == manager.apply_not(a)

    def test_rebuilding_a_function_allocates_no_nodes(self, manager):
        def build():
            a, b, c = (manager.var(i) for i in range(3))
            return manager.apply_or(manager.apply_and(a, b), manager.apply_xor(b, c))

        first = build()
        allocated = manager.num_nodes()
        assert build() == first
        assert manager.num_nodes() == allocated


class TestOperations:
    def test_conjoin_disjoin(self, manager):
        vars_ = [manager.var(i) for i in range(3)]
        conj = manager.conjoin(vars_)
        assert manager.evaluate(conj, {0: True, 1: True, 2: True})
        assert not manager.evaluate(conj, {0: True, 1: False, 2: True})
        disj = manager.disjoin(vars_)
        assert manager.evaluate(disj, {0: False, 1: False, 2: True})
        assert manager.conjoin([]) == TRUE
        assert manager.disjoin([]) == FALSE

    def test_restrict(self, manager):
        a, b = manager.var(0), manager.var(1)
        f = manager.apply_and(a, b)
        assert manager.restrict(f, {0: True}) == b
        assert manager.restrict(f, {0: False}) == FALSE
        assert manager.restrict(f, {0: True, 1: True}) == TRUE

    def test_exists(self, manager):
        a, b = manager.var(0), manager.var(1)
        f = manager.apply_and(a, b)
        assert manager.exists(f, [0]) == b
        assert manager.exists(manager.apply_or(a, b), [0]) == TRUE

    def test_exists_over_no_variables_is_identity(self, manager):
        f = manager.apply_xor(manager.var(0), manager.var(3))
        assert manager.exists(f, []) == f
        assert manager.exists(f, [0, 3]) == TRUE

    def test_restrict_of_an_unassigned_function_is_identity(self, manager):
        f = manager.apply_and(manager.var(1), manager.var(2))
        assert manager.restrict(f, {}) == f
        assert manager.restrict(f, {0: True, 3: False}) == f

    def test_evaluate_reads_only_the_support(self, manager):
        f = manager.apply_and(manager.var(0), manager.nvar(2))
        assert manager.evaluate(f, {0: True, 2: False})
        assert not manager.evaluate(f, {0: True, 2: True})
        assert manager.evaluate(TRUE, {}) and not manager.evaluate(FALSE, {})

    def test_support(self, manager):
        a, c = manager.var(0), manager.var(2)
        f = manager.apply_or(a, c)
        assert manager.support(f) == [0, 2]
        assert manager.support(TRUE) == []

    def test_evaluate_requires_assignment(self, manager):
        f = manager.var(1)
        with pytest.raises(BddError):
            manager.evaluate(f, {})

    def test_size(self, manager):
        a, b = manager.var(0), manager.var(1)
        f = manager.apply_and(a, b)
        assert manager.size(f) == 2
        assert manager.size(TRUE) == 0

class TestCacheLimit:
    """The ite memo cache stays bounded when a limit is set."""

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            BddManager(num_vars=2, cache_limit=0)
        with pytest.raises(ValueError):
            BddManager(num_vars=2, cache_limit=-5)

    def test_unbounded_by_default(self):
        manager = BddManager(num_vars=8)
        assert manager.cache_limit is None

    def test_cache_cleared_on_overflow(self):
        limit = 50
        manager = BddManager(num_vars=12, cache_limit=limit)
        f = manager.conjoin(manager.var(i) for i in range(12))
        for i in range(12):
            f = manager.apply_or(f, manager.apply_xor(manager.var(i), manager.var((i + 1) % 12)))
        assert len(manager._ite_cache) <= limit

    def test_memory_bounded_across_many_restricts(self):
        """Many specializations (restrict + quantification) keep the memo
        cache bounded, not growing with the number of destinations."""
        limit = 200
        manager = BddManager(num_vars=16, cache_limit=limit)
        f = manager.disjoin(
            manager.apply_and(manager.var(i), manager.var(i + 1)) for i in range(15)
        )
        for round_ in range(100):
            restricted = manager.restrict(f, {round_ % 16: bool(round_ % 2)})
            manager.exists(restricted, [(round_ + 3) % 16, (round_ + 7) % 16])
            assert len(manager._ite_cache) <= limit

    def test_bounded_manager_computes_same_results(self):
        bounded = BddManager(num_vars=10, cache_limit=10)
        unbounded = BddManager(num_vars=10)
        for manager in (bounded, unbounded):
            acc = TRUE
            for i in range(9):
                acc = manager.apply_and(acc, manager.apply_or(manager.var(i), manager.var(i + 1)))
            manager._result = acc  # stash for comparison below
        for bits in range(2**10):
            assignment = {i: bool(bits >> i & 1) for i in range(10)}
            assert bounded.evaluate(bounded._result, assignment) == unbounded.evaluate(
                unbounded._result, assignment
            )
