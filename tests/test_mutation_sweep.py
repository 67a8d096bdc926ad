"""Seeded mutation sweep: single-term changes of the written-out statements
fail verify.

``model`` writes out seven invariants, mb5's field, Phi, Phi's section and
the inverse Legendre map; everything else is derived from them.  A mutant
adds one term (1, a variable, or a degree-2 monomial of the statement's own
variables) to one component of one statement.  There are 693 of them.  Each
that is checked must fail at least one check of ``verify.run_suite("all")``,
so that a change that drops a residual or merges two checks cannot lose
sensitivity while every golden stays green.  Hypothesis checks a fixed
sample of 40 per run (derandomized); the 28 on the inverse Legendre map's q3
row, which only ``legendre-inverse`` reads, are pinned by name.  Run this
file as a script to check all 693:

    PYTHONPATH=src python tests/test_mutation_sweep.py

It prints each mutant that passes verify and exits 1 if there is one.  All
693 failed when it was last run, so no mutant is equivalent and none is
left out.
"""

import itertools
import sys
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrwa import model, symmetry, verify
from mbrwa.model import VARS5, VARS6, InvariantId, SystemId
from mbrwa.polyring import Poly
from patching import CACHES, patched

# (model function, its argument or None, the statement's variables)
STATEMENTS = [
    *(("invariant_symbolic", inv, model.invariant_symbolic(inv).vars) for inv in InvariantId),
    ("rhs_symbolic", SystemId.MB5, VARS5),
    ("phi_symbolic", None, VARS6),
    ("phi_section_symbolic", None, VARS5),
    ("legendre_inverse_symbolic", None, VARS6),
]


def terms(vars) -> list[Poly]:
    """1, each variable, and each degree-2 monomial over ``vars``."""
    xs = Poly.variables(vars)
    return [Poly.const(vars, 1), *xs, *(a * b for a, b in
                                        itertools.combinations_with_replacement(xs, 2))]


def statement(attr, arg):
    fn = getattr(model, attr)
    return fn() if arg is None else fn(arg)


def components(value) -> list:
    """The component keys of a statement: None for one Poly, else its
    indices or names."""
    if isinstance(value, Poly):
        return [None]
    return list(value) if isinstance(value, MappingProxyType) else list(range(len(value)))


def mutant_name(attr, arg, key, term) -> str:
    call = f"{attr}({'' if arg is None else arg.name})"
    return f"{call}{'' if key is None else f'[{key!r}]'} += {term}"


MUTANTS = {
    mutant_name(attr, arg, key, term): (attr, arg, key, term)
    for attr, arg, vars in STATEMENTS
    for key in components(statement(attr, arg))
    for term in terms(vars)
}


def mutated(value, key, term):
    if key is None:
        return value + term
    if isinstance(value, MappingProxyType):
        return MappingProxyType({**value, key: value[key] + term})
    return tuple(c + term if i == key else c for i, c in enumerate(value))


def applied(name):
    """``model`` with the named mutant in place, on empty caches."""
    attr, arg, key, term = MUTANTS[name]
    original = getattr(model, attr)

    def mutant(*args):
        value = original(*args)
        return mutated(value, key, term) if args == (() if arg is None else (arg,)) else value

    return patched(model, attr, mutant)


def failed_checks(name) -> set[str]:
    with applied(name):
        return {r.check for r in verify.run_suite("all") if not r.passed}


def test_the_sweep_covers_every_single_term_mutant():
    # components over 5 variables (21 terms each): H, C, J, mb5's field
    # and Phi's section; over 6 (28 terms each): H~, C~, J~, L, Phi, FL^-1
    assert len(MUTANTS) == (3 + 5 + 5) * 21 + (4 + 5 + 6) * 28 == 693
    assert {symmetry._jet_shift, symmetry._unit_residual_pieces} <= CACHES


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MUTANTS)))
def test_every_mutant_fails_verify(name):
    assert failed_checks(name), name


# the inverse Legendre map's q3 row: no charge or invariant reads it
LEGENDRE_INVERSE_Q3 = [
    mutant_name("legendre_inverse_symbolic", None, 2, term) for term in terms(VARS6)
]


@pytest.mark.parametrize("name", LEGENDRE_INVERSE_Q3)
def test_legendre_inverse_q3_mutants_fail_only_their_check(name):
    assert failed_checks(name) == {"legendre-inverse"}


if __name__ == "__main__":
    survivors = [name for name in MUTANTS if not failed_checks(name)]
    for name in survivors:
        print(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants fail verify")
    sys.exit(1 if survivors else 0)
