import pytest
from hypothesis import strategies as st

from regmon import equivalence, semantics
from regmon.terms import END, NO, YES, Alphabet, Prefix, Sum, Var

AB = Alphabet.finite(["a", "b"])
A = Alphabet.finite(["a"])
INF = Alphabet.open_ended()


@pytest.fixture
def ab():
    return AB


@pytest.fixture
def unary():
    return A


@pytest.fixture
def open_ended():
    return INF


class StepBudgetExceeded(Exception):
    pass


@pytest.fixture
def step_budget(monkeypatch):
    """``step_budget(n)`` makes ``semantics.step_state`` raise
    :class:`StepBudgetExceeded` on its ``n + 1``-th call, so that a search
    that blows up fails fast and without timing."""

    def install(limit):
        calls = [0]
        step_state = semantics.step_state

        def counted(state, action, substitution=None):
            calls[0] += 1
            if calls[0] > limit:
                raise StepBudgetExceeded(f"more than {limit} step_state calls")
            return step_state(state, action, substitution)

        monkeypatch.setattr(semantics, "step_state", counted)
        monkeypatch.setattr(equivalence, "step_state", counted)

    return install


def monitors(actions=("a", "b"), variables=("x", "y"), max_depth=4):
    """Hypothesis strategy for monitor terms."""
    leaves = [st.just(END), st.just(YES), st.just(NO)]
    leaves.extend(st.just(Var(v)) for v in variables)
    leaf = st.one_of(leaves)

    def extend(children):
        return st.one_of(
            st.builds(Prefix, st.sampled_from(list(actions)), children),
            st.builds(Sum, children, children),
        )

    return st.recursive(leaf, extend, max_leaves=2 ** max_depth)


def closed_monitors(actions=("a", "b"), max_depth=4):
    return monitors(actions, variables=(), max_depth=max_depth)
