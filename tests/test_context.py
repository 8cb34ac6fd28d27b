import gc
import weakref

from flagcalc import context
from flagcalc.context import flag_context

PARABOLICS = [("A", 4, (2,)), ("C", 4, (4,)), ("B", 3, (1, 2, 3)), ("A", 5, (3,))]


def test_emptying_the_contexts_frees_every_per_parabolic_object(monkeypatch):
    """flag_context is the one owner of what it builds for a parabolic: once
    _contexts is emptied, no coset table, ring, deformed ring, Levi system or
    Levi root system survives, the rank-0 Levi of the Borel B3{1,2,3}
    included.  The simple factors outlive them, being shared by design
    through levi.simple_factor."""
    monkeypatch.setattr(context, "_contexts", {})
    refs, factors = [], []
    for letter, rank, crossed in PARABOLICS:
        cx = flag_context(letter, rank, crossed)
        refs += [weakref.ref(x) for x in (cx.ct, cx.ring, cx.deformed, cx.levi, cx.levi.system)]
        factors += [weakref.ref(f) for _, f in cx.levi.factors]
    del cx
    context._contexts.clear()
    gc.collect()
    assert [ref() for ref in refs if ref() is not None] == []
    assert len(factors) == 5 and all(ref() is not None for ref in factors)
