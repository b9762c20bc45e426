"""Spans around the public entry points of every superbialg module.

The tracer replaces public functions and methods with wrappers that record
one span per call: name, start, end and parent.  Spans are kept in flat
arrays in memory and written out once, after the pass.  Self time is a
span's duration minus the durations of its children.

A function that another module imports by name is replaced in every module
that binds it, so calls are caught where they are looked up (``claims``
binds ``poisson.check_axioms`` under its own name, for example).  Methods
are replaced on their class, which covers every caller.

Three wrappers also count properties that later optimisations would
exploit: the term products and nonzero operands of ``SuperScalar.__mul__``,
and how often ``bracket`` / ``apply_field`` / ``coproduct`` are called with
arguments that an earlier call in the process already had.
"""

from __future__ import annotations

import array
import json
import os
import time

_now = time.perf_counter_ns

# traced functions as (module, name); the span is named "module.name"
FUNCTIONS = [
    ("algebra", "builtin"),
    ("tensors", "ad_action"), ("tensors", "schouten"),
    ("bialgebra", "family"), ("bialgebra", "coboundary_delta"),
    ("bialgebra", "check_cobracket"), ("bialgebra", "cybe_status"),
    ("cocycles", "solve_cocycle_space"), ("cocycles", "coboundary_space"),
    ("cocycles", "cojacobi_constraints"),
    ("equivalence", "osp_automorphism"), ("equivalence", "transform"),
    ("poisson", "named_structure"),
    ("poisson", "coboundary_structure"), ("poisson", "check_axioms"),
    ("poisson", "format_table"), ("poisson", "table_cell"),
    ("claims", "run_claims"),
    ("cli", "main"),
]

MODULES = ("scalars", "algebra", "tensors", "bialgebra", "cocycles",
           "equivalence", "poisson", "claims", "cli")


def _terms_key(x):
    return frozenset(x._terms.items())


class Tracer:
    """Records spans into flat arrays; one instance per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self.mul_nonzero = 0
        self.term_products = 0
        self.repeats = {}   # span name -> [calls, repeated calls, seen hashes]
        self._restore = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def _close(self, idx):
        self.end[idx] = _now()
        self._stack.pop()

    def span(self, name):
        """Context manager recording one span (used around each job)."""
        tracer = self
        nid = self._id(name)

        class _Span:
            def __enter__(self):
                self.idx = tracer._open(nid)

            def __exit__(self, *exc):
                tracer._close(self.idx)
        return _Span()

    def wrap(self, name, fn, label=None, repeat_key=None, before=None):
        """A wrapper of `fn` recording a span named `name` (plus
        ``:<label(args)>`` when `label` is given)."""
        nid = self._id(name)
        open_, close = self._open, self._close
        stats = self.repeats.setdefault(name, [0, 0, set()]) \
            if repeat_key else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if stats is not None:
                key = hash(repeat_key(args))
                stats[0] += 1
                if key in stats[2]:
                    stats[1] += 1
                else:
                    stats[2].add(key)
            idx = open_(self._id(f"{name}:{label(args)}") if label else nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import importlib
        import superbialg
        mods = {m: importlib.import_module(f"superbialg.{m}") for m in MODULES}
        scalars, poisson, equivalence = (mods["scalars"], mods["poisson"],
                                         mods["equivalence"])
        for mod_name, attr in FUNCTIONS:
            fn = getattr(mods[mod_name], attr)
            label = None
            if attr == "check_axioms":
                label = _structure_label
            elif attr == "solve_cocycle_space":
                label = _algebra_label
            wrapped = self.wrap(f"{mod_name}.{attr}", fn, label=label)
            for mod in list(mods.values()) + [superbialg]:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, name, wrapped)
        for claim in equivalence.ORBIT_CLAIMS:
            self._replace(claim, "run", self.wrap(
                "equivalence.orbit_claim", claim.run))

        S = scalars.SuperScalar

        def count_mul(args):
            a, b = args
            na = len(a._terms)
            nb = len(b._terms) if isinstance(b, S) else (1 if b else 0)
            self.term_products += na * nb
            if na and nb:
                self.mul_nonzero += 1

        self._replace(S, "__mul__", self.wrap("scalars.mul", S.__mul__,
                                              before=count_mul))
        self._replace(S, "__add__", self.wrap("scalars.add", S.__add__))
        self._replace(S, "__radd__", self.wrap("scalars.add", S.__radd__))

        structure_keys = {}

        def structure_key(st):
            entry = structure_keys.get(id(st))
            if entry is None or entry[0] is not st:
                key = (st.group.name, tuple(st.r_entries),
                       tuple((k, _terms_key(v)) for k, v in st.phi.items()))
                entry = structure_keys[id(st)] = (st, key)
            return entry[1]

        P, C = poisson.PoissonStructure, poisson.CoordinateRing
        self._replace(P, "bracket", self.wrap(
            "poisson.bracket", P.bracket,
            repeat_key=lambda a: (structure_key(a[0]), _terms_key(a[1]),
                                  _terms_key(a[2]))))
        self._replace(C, "apply_field", self.wrap(
            "poisson.field", C.apply_field,
            repeat_key=lambda a: (a[0].name, a[1].label, a[1].side,
                                  _terms_key(a[2]))))
        self._replace(C, "coproduct", self.wrap(
            "poisson.coproduct", C.coproduct,
            repeat_key=lambda a: (a[0].name, _terms_key(a[1]))))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- results ---------------------------------------------------------------

    def summary(self):
        """{span name: [calls, inclusive seconds, self seconds]}."""
        n = len(self.name_of)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        names = self.names
        for i in range(n):
            dur = end[i] - start[i]
            row = out.get(names[self.name_of[i]])
            if row is None:
                row = out[names[self.name_of[i]]] = [0, 0, 0]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {k: [c, t / 1e9, s / 1e9] for k, (c, t, s) in out.items()}

    def repeat_ratios(self):
        return {name: (rep / calls if calls else 0.0)
                for name, (calls, rep, _) in self.repeats.items()}

    def write(self, path):
        """Write the spans: a JSON header line, then the four arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": self.names, "count": len(self.name_of),
                  "arrays": ["name_of:i", "parent:i", "start_ns:q", "end_ns:q"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def _structure_label(args):
    st = args[0]
    return f"{st.group.name}-{st.structure_id}"


def _algebra_label(args):
    return args[0].name
