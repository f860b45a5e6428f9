"""Hypothesis properties of the BDD manager against a truth-table oracle.

A random straight-line program over eight variables runs twice, in
lockstep: once on a :class:`BddManager` and once on truth tables, where a
function is a 256-bit integer whose bit ``a`` is its value under
assignment ``a`` (variable ``v`` is bit ``v`` of ``a``).  Every semantic
operation of the manager must agree with the table over all 2^8
assignments, and canonicity must hold by node id: two nodes are equal
exactly when their tables are.

Every property runs twice: on a manager with an unbounded ``ite`` cache
and on one whose cache is small enough to be cleared many times per
program.  Clearing is an optimisation detail, so no answer may change.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import FALSE, TRUE, BddManager

pytestmark = pytest.mark.parametrize(
    "cache_limit", [None, 8], ids=["unbounded", "bounded"]
)

NUM_VARS = 8
ROWS = 1 << NUM_VARS
FULL = (1 << ROWS) - 1

#: Every total assignment, indexed by its row number.
ASSIGNMENTS = [{v: bool(a >> v & 1) for v in range(NUM_VARS)} for a in range(ROWS)]

#: The truth table of each variable.
VAR_TABLES = [sum(1 << a for a in range(ROWS) if a >> v & 1) for v in range(NUM_VARS)]

_OPS = ("not", "and", "or", "xor", "iff", "implies", "ite")

#: A straight-line program: an operation plus operand indices (taken
#: modulo the number of formulas built so far).
programs = st.lists(
    st.tuples(
        st.sampled_from(_OPS),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=40,
)

variables = st.integers(min_value=0, max_value=NUM_VARS - 1)

#: The commutative binary operations, with their table counterparts.
COMMUTATIVE = {
    "and": ("apply_and", lambda a, b: a & b),
    "or": ("apply_or", lambda a, b: a | b),
    "xor": ("apply_xor", lambda a, b: a ^ b),
    "iff": ("apply_iff", lambda a, b: FULL ^ a ^ b),
}


def run_program(manager, steps):
    """Every intermediate ``(bdd, table)`` pair of the program."""
    pool = [(FALSE, 0), (TRUE, FULL)]
    pool += [(manager.var(v), VAR_TABLES[v]) for v in range(NUM_VARS)]
    pool += [(manager.nvar(v), FULL ^ VAR_TABLES[v]) for v in range(0, NUM_VARS, 2)]
    for op, i, j, k in steps:
        (a, ta), (b, tb), (c, tc) = (pool[n % len(pool)] for n in (i, j, k))
        if op == "not":
            pool.append((manager.apply_not(a), FULL ^ ta))
        elif op == "and":
            pool.append((manager.apply_and(a, b), ta & tb))
        elif op == "or":
            pool.append((manager.apply_or(a, b), ta | tb))
        elif op == "xor":
            pool.append((manager.apply_xor(a, b), ta ^ tb))
        elif op == "iff":
            pool.append((manager.apply_iff(a, b), FULL ^ ta ^ tb))
        elif op == "implies":
            pool.append((manager.apply_implies(a, b), (FULL ^ ta) | tb))
        else:
            pool.append((manager.ite(a, b, c), (ta & tb) | ((FULL ^ ta) & tc)))
    return pool


def build(cache_limit, steps):
    """A fresh manager and the program's pool on it."""
    manager = BddManager(num_vars=NUM_VARS, cache_limit=cache_limit)
    return manager, run_program(manager, steps)


def table_of(manager, node) -> int:
    """The node's truth table, by evaluating it under every assignment."""
    return sum(1 << a for a, row in enumerate(ASSIGNMENTS) if manager.evaluate(node, row))


def cofactor(table: int, var: int, value: bool) -> int:
    """The table with ``var`` fixed to ``value``."""
    shift, mask = 1 << var, VAR_TABLES[var]
    if value:
        high = table & mask
        return high | (high >> shift)
    low = table & (FULL ^ mask)
    return low | (low << shift)


def support_of(table: int):
    return [v for v in range(NUM_VARS) if cofactor(table, v, True) != cofactor(table, v, False)]


@settings(max_examples=120, deadline=None)
@given(programs)
def test_evaluation_matches_the_table(cache_limit, steps):
    manager, pool = build(cache_limit, steps)
    evaluated = {}
    for node, table in pool:
        if node not in evaluated:
            evaluated[node] = table_of(manager, node)
        assert evaluated[node] == table


@settings(max_examples=120, deadline=None)
@given(programs)
def test_support_matches_the_table(cache_limit, steps):
    manager, pool = build(cache_limit, steps)
    for node, table in pool:
        assert manager.support(node) == support_of(table)


@settings(max_examples=60, deadline=None)
@given(programs, variables, st.booleans())
def test_restrict_is_the_cofactor(cache_limit, steps, var, value):
    manager, pool = build(cache_limit, steps)
    f, table = pool[-1]
    assert table_of(manager, manager.restrict(f, {var: value})) == cofactor(table, var, value)


@settings(max_examples=60, deadline=None)
@given(programs, st.dictionaries(variables, st.booleans(), max_size=NUM_VARS))
def test_restrict_by_a_partial_assignment_fixes_every_variable(cache_limit, steps, assignment):
    manager, pool = build(cache_limit, steps)
    f, table = pool[-1]
    for var, value in assignment.items():
        table = cofactor(table, var, value)
    assert table_of(manager, manager.restrict(f, assignment)) == table


@settings(max_examples=60, deadline=None)
@given(programs, variables)
def test_exists_is_the_cofactor_disjunction(cache_limit, steps, var):
    manager, pool = build(cache_limit, steps)
    f, table = pool[-1]
    expected = cofactor(table, var, True) | cofactor(table, var, False)
    assert table_of(manager, manager.exists(f, [var])) == expected


@settings(max_examples=60, deadline=None)
@given(programs, variables)
def test_shannon_expansion(cache_limit, steps, var):
    """f == ite(x, f|x=1, f|x=0), as the same node."""
    manager, pool = build(cache_limit, steps)
    f, _ = pool[-1]
    expanded = manager.ite(
        manager.var(var), manager.restrict(f, {var: True}), manager.restrict(f, {var: False})
    )
    assert expanded == f


@settings(max_examples=60, deadline=None)
@given(programs)
def test_conjoin_and_disjoin_fold_the_operands(cache_limit, steps):
    manager, pool = build(cache_limit, steps)
    operands = pool[-4:]
    conjunction, disjunction = FULL, 0
    for _, table in operands:
        conjunction &= table
        disjunction |= table
    assert table_of(manager, manager.conjoin(node for node, _ in operands)) == conjunction
    assert table_of(manager, manager.disjoin(node for node, _ in operands)) == disjunction


@pytest.mark.parametrize("op", sorted(COMMUTATIVE))
@settings(max_examples=60, deadline=None)
@given(programs, st.integers(min_value=0), st.integers(min_value=0))
def test_commutative_operations_give_one_node(cache_limit, op, steps, i, j):
    manager, pool = build(cache_limit, steps)
    (a, ta), (b, tb) = pool[i % len(pool)], pool[j % len(pool)]
    method, on_tables = COMMUTATIVE[op]
    apply = getattr(manager, method)
    node = apply(a, b)
    assert node == apply(b, a)
    assert table_of(manager, node) == on_tables(ta, tb)


@settings(max_examples=60, deadline=None)
@given(programs)
def test_canonicity_laws(cache_limit, steps):
    manager, pool = build(cache_limit, steps)
    for f, _ in pool:
        assert manager.apply_not(manager.apply_not(f)) == f
        assert manager.apply_and(f, f) == f
        assert manager.apply_or(f, f) == f
        assert manager.apply_xor(f, f) == FALSE


@settings(max_examples=60, deadline=None)
@given(programs)
def test_equal_tables_are_equal_nodes(cache_limit, steps):
    """Semantic equality is node-id equality, in both directions."""
    _, pool = build(cache_limit, steps)
    node_of = {}
    for node, table in pool:
        assert node_of.setdefault(table, node) == node
    assert len(set(node_of.values())) == len(node_of)


@settings(max_examples=60, deadline=None)
@given(programs, st.sets(variables, max_size=NUM_VARS))
def test_exists_over_several_variables_quantifies_each_in_turn(cache_limit, steps, quantified):
    manager, pool = build(cache_limit, steps)
    f, table = pool[-1]
    for var in quantified:
        table = cofactor(table, var, True) | cofactor(table, var, False)
    result = manager.exists(f, quantified)
    assert table_of(manager, result) == table
    assert not set(manager.support(result)) & quantified


@settings(max_examples=60, deadline=None)
@given(programs, variables, st.booleans())
def test_restrict_and_exists_outside_the_support_return_the_same_node(cache_limit, steps, var, value):
    manager, pool = build(cache_limit, steps)
    for f, table in pool:
        if var not in support_of(table):
            assert manager.restrict(f, {var: value}) == f
            assert manager.exists(f, [var]) == f


@settings(max_examples=60, deadline=None)
@given(programs, variables, st.booleans())
def test_restrict_removes_the_variable_from_the_support(cache_limit, steps, var, value):
    manager, pool = build(cache_limit, steps)
    f, table = pool[-1]
    restricted = manager.restrict(f, {var: value})
    assert manager.support(restricted) == support_of(cofactor(table, var, value))
    assert var not in manager.support(restricted)


@settings(max_examples=60, deadline=None)
@given(programs)
def test_negation_keeps_the_size(cache_limit, steps):
    """An ROBDD without complement edges negates by swapping terminals."""
    manager, pool = build(cache_limit, steps)
    for f, _ in pool:
        assert manager.size(manager.apply_not(f)) == manager.size(f)


@settings(max_examples=60, deadline=None)
@given(programs)
def test_size_is_zero_exactly_for_constants(cache_limit, steps):
    manager, pool = build(cache_limit, steps)
    for f, table in pool:
        size = manager.size(f)
        assert (size == 0) == (table in (0, FULL))
        assert size >= len(support_of(table))


@settings(max_examples=60, deadline=None)
@given(programs, st.integers(min_value=0), st.integers(min_value=0))
def test_implication_is_valid_exactly_for_table_inclusion(cache_limit, steps, i, j):
    manager, pool = build(cache_limit, steps)
    (a, ta), (b, tb) = pool[i % len(pool)], pool[j % len(pool)]
    included = ta & (FULL ^ tb) == 0
    assert (manager.apply_implies(a, b) == TRUE) == included
    assert (manager.apply_and(a, b) == a) == included
    assert (manager.apply_or(a, b) == b) == included
