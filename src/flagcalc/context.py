"""One-stop bundle of everything attached to a choice of (G, P)."""

from __future__ import annotations

from collections import namedtuple

from . import roots
from .deformed import DeformedRing
from .levi import LeviSystem
from .schubert import CupRing
from .weyl import minimal_coset_reps


class FlagContext(namedtuple("FlagContext", "system parabolic wg ct ring deformed levi")):
    """The root system, parabolic, Weyl group, coset table, rings and Levi
    system of one (G, P), and the one owner of its table, rings and Levi."""

    __slots__ = ()

    def element(self, word):
        return self.ct.element_from_word(word)


_contexts = {}


def flag_context(type_letter, rank, crossed=()):
    """Context for the flag variety of the given type with the listed simple
    nodes crossed out (Delta minus Delta(P)); memoised per parabolic, so a node
    listed twice names the same context."""
    key = (str(type_letter).upper(), int(rank), tuple(sorted({int(c) for c in crossed})))
    if key not in _contexts:
        R = roots.build(key[0], key[1])
        P = roots.parabolic(R, crossed=key[2])
        ct = minimal_coset_reps(R, P)
        ring = CupRing(ct)
        _contexts[key] = FlagContext(system=R, parabolic=P, wg=ct.wg, ct=ct, ring=ring,
                                     deformed=DeformedRing(ring),
                                     levi=LeviSystem(R, P.levi_simple))
    return _contexts[key]
