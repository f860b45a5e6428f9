"""A reduced ordered binary decision diagram (ROBDD) engine.

Bonsai encodes every interface's routing policy as a BDD so that checking
whether two interfaces have semantically equivalent transfer functions is a
constant-time pointer comparison (§5.1).  The original implementation uses
JavaBDD; this module is a from-scratch pure-Python replacement providing
the operations Bonsai needs:

* hash-consed node creation (canonical representation),
* memoised ``ite`` / ``apply`` operations (and, or, not, xor, implies, iff),
* ``restrict`` (cofactor) used to *specialize* policies to a destination,
* existential quantification, support computation and evaluation under
  an assignment (the ``bdd_ops`` stage and the tests' truth tables).

Nodes are identified by integers.  ``0`` and ``1`` are the terminal FALSE
and TRUE nodes.  Because nodes are hash-consed, two functions are
semantically equal iff their node ids are equal -- which is exactly the
property the compression algorithm exploits.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs import metrics as _metrics

#: Terminal node ids.
FALSE = 0
TRUE = 1


class BddError(Exception):
    """Raised for invalid BDD operations (unknown variables, bad node ids)."""


class BddManager:
    """Manager owning a shared, hash-consed node store.

    Parameters
    ----------
    num_vars:
        Number of variables to pre-declare.  More can be added later with
        :meth:`add_var`; variable order is the declaration order.
    cache_limit:
        Optional bound on the memoisation cache for :meth:`ite`.  The cache
        is an optimisation only, so when it grows past the limit it is
        simply cleared (clear-on-overflow); correctness is unaffected.  The
        default (``None``) keeps the cache unbounded, which is fine for
        short-lived managers but can dominate memory when one manager
        serves many ``restrict``/``apply`` calls (e.g. specializing the
        policy BDDs of a large network to thousands of destinations).
    """

    def __init__(self, num_vars: int = 0, cache_limit: Optional[int] = None):
        if cache_limit is not None and cache_limit <= 0:
            raise ValueError("cache_limit must be positive (or None for unbounded)")
        self.cache_limit = cache_limit
        # Node storage: parallel arrays var/low/high indexed by node id.
        # Terminals use variable index "infinity" so they sort after all
        # decision variables.
        self._var: List[int] = [sys.maxsize, sys.maxsize]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._var_names: List[str] = []
        for i in range(num_vars):
            self.add_var(f"x{i}")

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_var(self, name: Optional[str] = None) -> int:
        """Declare a new variable (appended last in the order); returns its index."""
        index = len(self._var_names)
        self._var_names.append(name if name is not None else f"x{index}")
        return index

    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    def var_name(self, index: int) -> str:
        return self._var_names[index]

    def num_nodes(self) -> int:
        """Total number of nodes allocated (including terminals)."""
        return len(self._var)

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def _make_node(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def var(self, index: int) -> int:
        """The BDD for the single variable ``index``."""
        if index < 0 or index >= self.num_vars:
            raise BddError(f"variable index {index} out of range")
        return self._make_node(index, FALSE, TRUE)

    def nvar(self, index: int) -> int:
        """The BDD for the negation of variable ``index``."""
        if index < 0 or index >= self.num_vars:
            raise BddError(f"variable index {index} out of range")
        return self._make_node(index, TRUE, FALSE)

    # ------------------------------------------------------------------
    # Core operation: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f AND g) OR (NOT f AND h)``.

        Implemented with an explicit stack (no Python recursion): policy
        BDDs for long ACL / route-map chains can be thousands of variables
        deep, which the old bounded-depth recursive form could not handle
        (``RecursionError``), and the per-call bytecode overhead of the
        stack machine is lower.  Standard-triple normalisation (``ite(f,
        f, h) == ite(f, TRUE, h)``, ``ite(f, g, f) == ite(f, g, FALSE)``)
        plus the usual terminal shortcuts are applied to every subproblem
        before the memo-cache lookup, improving hit rates.
        """
        var = self._var
        low_arr = self._low
        high_arr = self._high
        unique = self._unique
        cache = self._ite_cache
        cache_limit = self.cache_limit

        #: Work stack of flat (phase, a, b, c) frames and a value stack of
        #: node ids.  An EXPAND frame carries a triple to solve (pushing
        #: its children); a COMBINE frame carries the top variable and the
        #: memo key, pops the two child results, builds the node and
        #: memoises it.
        EXPAND, COMBINE = 0, 1
        tasks = [(EXPAND, f, g, h)]
        values: List[int] = []
        push_task = tasks.append
        push_value = values.append
        pop_value = values.pop

        while tasks:
            phase, f, g, h = tasks.pop()
            if phase == COMBINE:
                # f is the top variable, g the memo key; h is unused.
                high = pop_value()
                low = pop_value()
                # _make_node, inlined.
                if low == high:
                    result = low
                else:
                    node_key = (f, low, high)
                    result = unique.get(node_key)
                    if result is None:
                        result = len(var)
                        var.append(f)
                        low_arr.append(low)
                        high_arr.append(high)
                        unique[node_key] = result
                if cache_limit is not None and len(cache) >= cache_limit:
                    cache.clear()
                    _metrics.counter("bdd.ite_cache.overflows").inc()
                cache[g] = result
                push_value(result)
                continue

            # Terminal shortcuts and standard-triple normalisation.
            if f == TRUE:
                push_value(g)
                continue
            if f == FALSE:
                push_value(h)
                continue
            if g == f:
                g = TRUE
            if h == f:
                h = FALSE
            if g == h:
                push_value(g)
                continue
            if g == TRUE and h == FALSE:
                push_value(f)
                continue
            key = (f, g, h)
            cached = cache.get(key)
            if cached is not None:
                push_value(cached)
                continue

            fv, gv, hv = var[f], var[g], var[h]
            top = fv if fv < gv else gv
            if hv < top:
                top = hv
            if fv == top:
                f0, f1 = low_arr[f], high_arr[f]
            else:
                f0 = f1 = f
            if gv == top:
                g0, g1 = low_arr[g], high_arr[g]
            else:
                g0 = g1 = g
            if hv == top:
                h0, h1 = low_arr[h], high_arr[h]
            else:
                h0 = h1 = h
            # Children are pushed high-then-low so the low subproblem is
            # solved first (the recursive evaluation order), keeping node
            # allocation order -- and therefore node ids -- identical to
            # the recursive implementation.
            push_task((COMBINE, top, key, 0))
            push_task((EXPAND, f1, g1, h1))
            push_task((EXPAND, f0, g0, h0))

        return values[-1]

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def apply_not(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.apply_not(g), g)

    def apply_implies(self, f: int, g: int) -> int:
        return self.ite(f, g, TRUE)

    def apply_iff(self, f: int, g: int) -> int:
        return self.ite(f, g, self.apply_not(g))

    def conjoin(self, nodes: Iterable[int]) -> int:
        """AND of an iterable of BDDs (TRUE for the empty iterable)."""
        result = TRUE
        for node in nodes:
            result = self.apply_and(result, node)
            if result == FALSE:
                break
        return result

    def disjoin(self, nodes: Iterable[int]) -> int:
        """OR of an iterable of BDDs (FALSE for the empty iterable)."""
        result = FALSE
        for node in nodes:
            result = self.apply_or(result, node)
            if result == TRUE:
                break
        return result

    # ------------------------------------------------------------------
    # Restriction / quantification
    # ------------------------------------------------------------------
    def restrict(self, node: int, assignment: Dict[int, bool]) -> int:
        """Cofactor ``node`` with respect to a partial variable assignment.

        This is the *specialize* operation of Algorithm 1: plugging the
        destination's prefix bits into every policy BDD.  Iterative
        (explicit stack), so arbitrarily deep policy chains cannot
        overflow Python's recursion limit.
        """
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        cache: Dict[int, int] = {}

        EXPAND, COMBINE, MEMO = 0, 1, 2
        tasks = [(EXPAND, node)]
        values: List[int] = []

        while tasks:
            phase, n = tasks.pop()
            if phase == EXPAND:
                if n == FALSE or n == TRUE:
                    values.append(n)
                    continue
                cached = cache.get(n)
                if cached is not None:
                    values.append(cached)
                    continue
                var = var_arr[n]
                if var in assignment:
                    # Follow the assigned branch; MEMO records the result
                    # against ``n`` once the branch is solved.
                    tasks.append((MEMO, n))
                    tasks.append(
                        (EXPAND, high_arr[n] if assignment[var] else low_arr[n])
                    )
                else:
                    tasks.append((COMBINE, n))
                    tasks.append((EXPAND, high_arr[n]))
                    tasks.append((EXPAND, low_arr[n]))
            elif phase == COMBINE:
                high = values.pop()
                low = values.pop()
                result = self._make_node(var_arr[n], low, high)
                cache[n] = result
                values.append(result)
            else:  # MEMO
                cache[n] = values[-1]

        return values[-1]

    def exists(self, node: int, variables: Iterable[int]) -> int:
        """Existentially quantify ``variables`` out of ``node``."""
        result = node
        for var in sorted(set(variables), reverse=True):
            result = self.apply_or(
                self.restrict(result, {var: False}), self.restrict(result, {var: True})
            )
        return result

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def support(self, node: int) -> List[int]:
        """The variables the function actually depends on, in order."""
        seen = set()
        variables = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n in (FALSE, TRUE) or n in seen:
                continue
            seen.add(n)
            variables.add(self._var[n])
            stack.append(self._low[n])
            stack.append(self._high[n])
        return sorted(variables)

    def evaluate(self, node: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate the function under a total assignment of its support."""
        n = node
        while n not in (FALSE, TRUE):
            var = self._var[n]
            if var not in assignment:
                raise BddError(f"assignment missing variable {self.var_name(var)}")
            n = self._high[n] if assignment[var] else self._low[n]
        return n == TRUE

    def size(self, node: int) -> int:
        """Number of decision nodes reachable from ``node``."""
        seen = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n in (FALSE, TRUE) or n in seen:
                continue
            seen.add(n)
            stack.append(self._low[n])
            stack.append(self._high[n])
        return len(seen)
