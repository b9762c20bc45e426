"""Scalar-kernel probes on operands taken from real computations.

Each probe captures operands through public calls, then times one
operation on them in a loop:

* ``osp``: the largest values of OSp structure-3 brackets and nested
  brackets of generators (the relation ring, where every product is
  reduced by a*d - b*c + alpha*delta = 1);
* ``e2``: the same for super-E(2) structure iv (Laurent in E);
* ``tensor``: coproducts of OSp generators in the tensor-square ring;
* ``const``: entries of a numeric case-A cobracket table, zeros included,
  as met in the dense cobracket loops;
* ``reduce``: ``reduce_mod_relation`` on the unreduced product of two OSp
  bracket values.

Reports the median time of one call per operand pair, with the term
counts of the operands, and per kind the median over its pairs.
"""

from __future__ import annotations

import statistics
import time


def _per_call_us(fn, rounds=5, min_s=0.005):
    n = 1
    while True:
        t = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t >= min_s:
            break
        n *= 2
    samples = []
    for _ in range(rounds):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t) / n)
    return statistics.median(samples) * 1e6


def _largest_brackets(structure, count=4):
    """The largest values of {f, g} and {f, {g, h}} on generators, as the
    Jacobi sweep of check_axioms meets them."""
    grp = structure.group
    gens = [grp.var(g) for g in grp.coordinates]
    values = [structure.bracket(f, g) for i, f in enumerate(gens)
              for g in gens[i:]]
    values += [structure.bracket(f, v) for f in gens for v in values]
    values.sort(key=lambda v: -_terms(v))
    return values[:count]


def _ring_pairs(values):
    return [(values[i], values[(i + 1) % len(values)])
            for i in range(len(values))]


def operands():
    """{kind: [(a, b), ...]} captured through public calls."""
    from superbialg import bialgebra, poisson
    osp = _largest_brackets(poisson.named_structure("osp", "3"))
    e2 = _largest_brackets(poisson.named_structure("super-e2", "iv"))
    grp = poisson.group("osp")
    tensor = [grp.coproduct(grp.var(g)) for g in ("a", "b", "alpha", "d")]
    table = bialgebra.family("e2-case-a", a=2, b=8, c=3).f
    entries = [v for plane in table for row in plane for v in row]
    consts = [v for v in entries if not v.is_zero()][:3]
    zero = next(v for v in entries if v.is_zero())
    return {
        "osp": _ring_pairs(osp),
        "e2": _ring_pairs(e2),
        "tensor": _ring_pairs(tensor),
        "const": [(consts[0], consts[1]), (consts[1], consts[2]),
                  (zero, consts[0]), (zero, zero)],
    }


def _terms(x):
    return len(list(x.terms()))


def run():
    """{"mul_us": {kind: us}, "reduce_us": us, "pairs": [details]}."""
    from superbialg import scalars
    pairs = []
    mul_us = {}
    for kind, ops in operands().items():
        times = []
        for a, b in ops:
            us = _per_call_us(lambda: a * b)
            times.append(us)
            pairs.append({"kind": kind, "terms": [_terms(a), _terms(b)],
                          "us": us})
        mul_us[kind] = statistics.median(times)

    # an unreduced product: multiply in the same variables without the relation
    from superbialg import poisson
    osp_ring = poisson.group("osp").ring
    free = scalars.Ring([(n, osp_ring.kind(n)) for n in osp_ring.names])
    reduce_times = []
    for a, b in _ring_pairs(_largest_brackets(poisson.named_structure("osp", "3"))):
        x = a.convert(free) * b.convert(free)
        reduced = scalars.reduce_mod_relation(x, "a*d-b*c+alpha*delta-1", "a*d")
        if reduced.convert(osp_ring) != a * b:
            raise RuntimeError("reduce_mod_relation disagrees with the ring product")
        us = _per_call_us(lambda: scalars.reduce_mod_relation(
            x, "a*d-b*c+alpha*delta-1", "a*d"))
        reduce_times.append(us)
        pairs.append({"kind": "reduce", "terms": [_terms(x)], "us": us})
    return {"mul_us": mul_us, "reduce_us": statistics.median(reduce_times),
            "pairs": pairs}
