"""The claim registry: a bundled manifest of verifiable statements.

Each claim maps an id and a human anchor to a module call with an expected
outcome; `run_claims` executes the registry and returns one ClaimResult per
claim.  Statuses are "pass", "fail", or "erratum" (a published table cell
contradicted by exact recomputation, with the recomputed value
authoritative).  Machine format is one line per claim:
``claim-id<TAB>status<TAB>detail``.
"""

from __future__ import annotations

import functools
import itertools
import json

from .algebra import SuperLieAlgebra, builtin, data_path
from .bialgebra import check_cobracket, coboundary_delta, cybe_status, family
from .tensors import parse_rmatrix
from . import cocycles
from .equivalence import ORBIT_CLAIMS
from .poisson import group, named_structure, check_axioms, table_cell


class ClaimResult:
    """One claim's outcome; `status` is pass, fail or erratum."""

    __slots__ = ("claim_id", "anchor", "status", "detail")

    def __init__(self, claim_id, anchor, status, detail):
        self.claim_id = claim_id
        self.anchor = anchor
        self.status = status
        self.detail = detail

    def machine_line(self):
        return f"{self.claim_id}\t{self.status}\t{self.detail}"


def load_claims():
    return json.loads(data_path("claims.json").read_text())


# -- claim runners -------------------------------------------------------------

def _status(report, text):
    return ("pass", text) if report.passed else ("fail", report.render())


def _run_validate(claim):
    return _status(builtin(claim["algebra"]).validate(),
                   "all three axiom families hold")


def constants_from_group(grp):
    """The structure constants of `grp.algebra` read off T, from its basis
    names and grades, never its constants: rho(g_k) = xi_k(T)|_e for the
    tangent xi_k, and c_ij^k solved from rho_i rho_j - (-1)^{|i||j|} rho_j
    rho_i = sum_k c_ij^k rho_k, i <= j, all in one `span_solve`; None when
    one leaves the span.
    ValueError when the rho_k are dependent, as T then does not fix c."""
    algebra, index, names = grp.algebra, grp.entry_index, grp.algebra.basis
    rho = [[[[at_e[index[t]] if t in index else 0 for t in row]
             for row in block] for block in grp.matrix]
           for at_e in map(grp.tangent_at_identity, names)]
    flat = [[x for block in blocks for row in block for x in row]
            for blocks in rho]
    if cocycles.rank(flat) < len(names):
        raise ValueError(f"{grp.name}: the tangents at e are linearly dependent")
    # rho_i rho_j block by block, flattened as `flat`
    product = {(i, j): [sum(x * y for x, y in zip(row, column) if x and y)
                        for a, b in zip(left, right)
                        for row in a for column in zip(*b)]
               for i, left in enumerate(rho) for j, right in enumerate(rho)}
    pairs = list(itertools.combinations_with_replacement(range(len(names)), 2))
    solved = cocycles.span_solve(flat, [
        [x - algebra.z(i, j) * y for x, y in zip(product[i, j], product[j, i])]
        for i, j in pairs])
    if None in solved:
        return None
    brackets = {(names[i], names[j]): [(c, n) for n, c in zip(names, cs) if c]
                for (i, j), cs in zip(pairs, solved)}
    return SuperLieAlgebra(algebra.name, list(zip(names, algebra.grades)),
                           brackets).constants


def _run_builtin_file(claim):
    # "builtin" in the detail is the constants read off T
    name = claim["algebra"]
    if builtin(name).constants != constants_from_group(group(name)):
        return "fail", "structure constants differ"
    return "pass", "file constants identical to builtin"


def _run_coboundary_axioms(claim):
    algebra = builtin(claim["algebra"])
    r = family(claim["family"])
    return _status(check_cobracket(algebra, coboundary_delta(algebra, r)),
                   "grading, antisymmetry, co-Jacobi and cocycle hold")


def _run_cobracket_axioms(claim):
    algebra = builtin("super_e2")
    d = family(claim["family"], **claim.get("params", {}))
    return _status(check_cobracket(algebra, d),
                   "all four axioms hold symbolically")


def _run_case_b_generic(claim):
    algebra = builtin("super_e2")
    d = family("e2-case-b")
    report = check_cobracket(algebra, d)
    failing = report.failing_axioms()
    if failing != ["cojacobi"]:
        return "fail", f"expected only co-Jacobi to fail, got {failing}"
    for res in report.residuals("cojacobi"):
        if not res.substitute({"c": 0}).is_zero() \
                or not res.substitute({"d": 0}).is_zero():
            return "fail", f"residual {res.render()} is not divisible by c*d"
    return "pass", ("co-Jacobi alone carries the obstruction; every residual"
                    " is divisible by c*d")


def _run_coboundary_equals(claim):
    algebra = builtin("super_e2")
    d = coboundary_delta(algebra, family(claim["r_family"]))
    target = family(claim["target_family"], **claim["target_params"])
    if target.ring != d.ring:
        target = target.convert(d.ring)
    return ("pass", "cobracket tables identical") if d == target \
        else ("fail", "tables differ")


def _run_coboundary_zero(claim):
    algebra = builtin(claim["algebra"])
    r = parse_rmatrix(claim["r_text"], algebra)
    d = coboundary_delta(algebra, r)
    return ("pass", "coboundary vanishes") if d.is_zero() \
        else ("fail", d.render())


def _run_cybe(claim):
    algebra = builtin(claim["algebra"])
    status = cybe_status(algebra, family(claim["family"]))
    if status == claim["expect"]:
        return "pass", f"status {status}"
    return "fail", f"expected {claim['expect']}, computed {status}"


# One entry each, as `SuperLieAlgebra.constants_in` keeps one ring: the
# super-E(2) space is solved once for the three claims that read it, and a
# replaced builtin is solved afresh.
@functools.lru_cache(maxsize=1)
def _cocycle_space(algebra):
    return cocycles.solve_cocycle_space(algebra)[1]


@functools.lru_cache(maxsize=1)
def _quadratic_points(algebra):
    """(co-Jacobi constraints, {point: (cobracket, coordinates)}) on the
    cocycle space of `algebra` (super-E(2)), both points solved in one
    `span_solve`."""
    fam = _cocycle_space(algebra)
    points = {"case-a": family("e2-case-a"),
              "case-b-cd": family("e2-case-b", c=1, d=1)}
    solved = cocycles.span_solve(fam.vectors, [
        cocycles.cobracket_vector(d, fam.unknowns) for d in points.values()])
    return (cocycles.cojacobi_constraints(fam)[1],
            {p: (d, x) for (p, d), x in zip(points.items(), solved)})


def _run_cocycle_spaces(claim):
    algebra = builtin(claim["algebra"])
    fam = _cocycle_space(algebra)
    _, cob_vectors = cocycles.coboundary_space(algebra)
    details = [f"unknowns {len(fam.unknowns)}",
               f"nullity {fam.nullity}", f"coboundaries {len(cob_vectors)}"]
    if fam.nullity != claim["nullity"] or len(cob_vectors) != claim["coboundary_dim"]:
        return "fail", "; ".join(details) + " (frozen values differ)"
    if None in cocycles.span_solve(fam.vectors, cob_vectors):
        return "fail", "a coboundary escaped the cocycle space"
    if claim["relation"] == "equal":
        if None in cocycles.span_solve(cob_vectors, fam.vectors):
            return "fail", "a cocycle is not a coboundary"
        details.append("spaces coincide")
    else:
        if not fam.nullity > len(cob_vectors):
            return "fail", "coboundary span is not proper"
        details.append("coboundary span is a proper subspace")
    return "pass", "; ".join(details)


def _run_quadratic_point(claim):
    constraints, points = _quadratic_points(builtin("super_e2"))
    d, coeffs = points[claim["point"]]
    if coeffs is None:
        return "fail", "point is outside the linear cocycle space"
    bad = cocycles.evaluate_constraints(constraints, coeffs, d.ring)
    if claim["point"] == "case-a":
        if bad:
            return "fail", f"{len(bad)} constraint(s) violated"
        return "pass", f"all {len(constraints)} quadratic constraints hold"
    if not bad:
        return "fail", "expected a violated constraint at c=d=1"
    return "pass", f"{len(bad)} of {len(constraints)} constraints violated"


def _run_orbit(claim):
    for oc in ORBIT_CLAIMS:
        if oc.claim_id == claim["id"]:
            ok, detail = oc.run()
            return ("pass" if ok else "fail"), detail
    return "fail", "unknown orbit claim"


def _run_poisson_axioms(claim):
    st = named_structure(claim["group"], claim["structure"])
    return _status(check_axioms(st), "antisymmetry, Leibniz, Jacobi, coproduct"
                   " morphism and vanishing at the identity all hold")


def _table_claims(manifest):
    """Expand the table transcriptions into one claim per cell."""
    out = []
    for table_name, table in manifest["tables"].items():
        for col in table["columns"]:
            cells = table["cells"].get(col, {})
            for pair in table["pairs"]:
                cell = cells.get(pair, "0")
                out.append({
                    "id": f"{table_name}.{col}.{pair}",
                    "kind": "table-cell",
                    "anchor": f"bracket table, column {col}, {{{pair}}}",
                    "group": table["group"],
                    "structure": col,
                    "pair": pair,
                    "cell": cell,
                })
    return out


def _run_table_cell(claim):
    st = named_structure(claim["group"], claim["structure"])
    grp = st.group
    cell = claim["cell"]
    if isinstance(cell, dict):
        reading = cell["reading"]
        published = cell["published"]
        note = cell.get("note", "")
    else:
        reading = cell
        published = None
        note = ""
    lf, lg = claim["pair"].split(",")
    computed = table_cell(st, lf, lg)
    want = grp.parse(reading)
    if computed != want:
        return "fail", (f"computed {computed.render()},"
                        f" expected {reading}")
    if published is None:
        return "pass", f"= {computed.render()}"
    detail = f"published {published!r}; recomputed {computed.render()}"
    try:
        pub_value = grp.parse(published)
    except ValueError:
        detail += "; published text does not parse"
    else:
        if not grp.vanishes_at_identity(pub_value):
            detail += "; published value is nonzero at the identity"
    if note:
        detail += f" ({note})"
    return "erratum", detail


_RUNNERS = {
    "validate": _run_validate,
    "builtin-file": _run_builtin_file,
    "coboundary-axioms": _run_coboundary_axioms,
    "cobracket-axioms": _run_cobracket_axioms,
    "case-b-generic": _run_case_b_generic,
    "coboundary-equals": _run_coboundary_equals,
    "coboundary-zero": _run_coboundary_zero,
    "cybe": _run_cybe,
    "cocycle-spaces": _run_cocycle_spaces,
    "quadratic-point": _run_quadratic_point,
    "orbit": _run_orbit,
    "poisson-axioms": _run_poisson_axioms,
    "table-cell": _run_table_cell,
}


def run_claims(prefix=None):
    """Run the registry, or only the claims whose id contains `prefix`."""
    manifest = load_claims()
    entries = list(manifest["claims"]) + _table_claims(manifest)
    results = []
    for claim in entries:
        if prefix and prefix not in claim["id"]:
            continue
        runner = _RUNNERS.get(claim["kind"])
        if runner is None:
            results.append(ClaimResult(claim["id"], claim.get("anchor", ""),
                                       "fail", f"no runner for {claim['kind']}"))
            continue
        try:
            status, detail = runner(claim)
        except Exception as exc:
            status, detail = "fail", f"error: {exc}"
        results.append(ClaimResult(claim["id"], claim.get("anchor", ""),
                                   status, detail))
    results.sort(key=lambda r: r.claim_id)
    return results


def summarize(results):
    counts = {"pass": 0, "fail": 0, "erratum": 0}
    for r in results:
        counts[r.status] = counts.get(r.status, 0) + 1
    return counts
