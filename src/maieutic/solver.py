"""Weighted MAX-SAT: an exhaustive oracle, an exact branch-and-bound
solver, and DIMACS WCNF import/export.

Both solvers are exact at every weight scale: they compare assignments
by integer weights in exact proportion to the clause weights. They
share one tie-breaking contract: among all optima they return the
lexicographically smallest value vector over variables in ascending id
order, with False ordered before True. The brute-force oracle gets
this by enumerating assignments as integers (first variable in the
high bit) and keeping the first exact best; the branch-and-bound
solver adds a soft unit clause ¬x_i of weight 2**(n-1-i) for the i-th
of n variables, under weights shifted left by n bits, so that the
smallest optimum is the only one.

The branch-and-bound state is incremental. Each literal has an
occurrence list of the clauses that hold it, and running totals keep
each literal's incident and unit weight, the weight still undecided
and the weight already banked. Assigning a variable updates only the
clauses on its two occurrence lists, and the test for a forced literal
is two lookups per unassigned variable, not a scan of the clauses.

A subproblem is pruned when the banked and undecided weight, less what
its unit clauses must lose, cannot beat the best leaf so far. Each
unassigned variable loses at least the lighter of its two unit weights,
on x and on ¬x: the simplest unit-propagation lower bound of Li, Manyà
and Planes (CP 2005). An open clause with one unassigned literal counts
in that literal's unit weight alone and closes only when its variable
is assigned, so the losses of different variables are disjoint.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .core import ClauseOrigin, Literal, WeightedClause, WeightedCnf, parse_json
from .errors import ParseError, TooManyVariables, UnassignedVariable, WeightOverflow

MAX_BRUTE_VARIABLES = 24
_CHUNK = 1 << 20

# A WCNF file holds each weight times this, rounded to an integer.
WCNF_SCALE = 10 ** 6
_MAX_WCNF_WEIGHT = 2 ** 63 - 1
# import_wcnf holds a name for each variable its header declares; a header
# declaring more than this is refused, not allocated.
MAX_WCNF_VARIABLES = 1 << 16


@dataclass
class Assignment:
    """A complete truth assignment with its objective value."""

    values: dict[int, bool]
    satisfied_weight: float
    violated: list[int] = field(default_factory=list)


def evaluate(cnf: WeightedCnf, values: Mapping[int, bool]) -> tuple[float, list[int]]:
    """Satisfied weight plus the indices of falsified clauses.

    Raises ``UnassignedVariable`` when a declared variable has no value;
    a clause set names no other variable.
    """
    for var in cnf.variables:
        if var not in values:
            raise UnassignedVariable(f"variable {var} has no value")
    satisfied = 0.0
    violated: list[int] = []
    for index, clause in enumerate(cnf.clauses):
        for var, polarity in clause.literals:
            if values[var] == polarity:
                satisfied += clause.weight
                break
        else:
            violated.append(index)
    return satisfied, violated


def _finish(cnf: WeightedCnf, values: dict[int, bool]) -> Assignment:
    satisfied, violated = evaluate(cnf, values)
    return Assignment(values=values, satisfied_weight=satisfied, violated=violated)


def _integer_weights(cnf: WeightedCnf, shift: int = 0) -> list[int]:
    """Clause weights as integers in exact proportion to the float weights,
    times ``2 ** shift``.

    Every finite float is a dyadic rational, so scaling each by the
    largest denominator among them loses nothing. Each distinct weight
    is converted once: most clauses of a tree weigh 1.0.
    """
    weights = [clause.weight for clause in cnf.clauses]
    ratios = {weight: weight.as_integer_ratio() for weight in set(weights)}
    scale = max((denominator for _, denominator in ratios.values()), default=1)
    scaled = {weight: numerator * (scale // denominator) << shift
              for weight, (numerator, denominator) in ratios.items()}
    return list(map(scaled.__getitem__, weights))


def solve_brute(cnf: WeightedCnf) -> Assignment:
    """Exhaustive optimum over all assignments; the testing oracle.

    Restricted to ``MAX_BRUTE_VARIABLES`` variables. Candidate
    assignments are scored in blocks with float sums, so memory stays
    bounded; the candidates within the float error bound of a block's
    best are rescored exactly with the integer weights :func:`solve`
    uses, and the first exact best wins.
    """
    import numpy as np  # only the oracle needs it; ``import maieutic`` stays without

    ids = sorted(cnf.variables)
    count = len(ids)
    if count > MAX_BRUTE_VARIABLES:
        raise TooManyVariables(f"{count} variables exceed the exhaustive limit "
                               f"of {MAX_BRUTE_VARIABLES}")
    if count == 0:
        return _finish(cnf, {})
    shift = {var: count - 1 - pos for pos, var in enumerate(ids)}

    def satisfied(literals: Sequence[Literal], candidates: np.ndarray) -> np.ndarray:
        hit = np.zeros(len(candidates), dtype=bool)
        for var, polarity in literals:
            hit |= ((candidates >> shift[var]) & 1) == polarity
        return hit

    weights = _integer_weights(cnf)
    # a float sum of m positive weights is off by under m * 2**-53 of their
    # total, so an exact best's float score is within twice that of the top
    slack = (len(cnf.clauses) + 1) * 2.0 ** -52 * cnf.total_weight()
    best_weight, best_index = -1, 0
    for start in range(0, 1 << count, _CHUNK):
        shortlist = np.arange(start, min(start + _CHUNK, 1 << count), dtype=np.int64)
        if np.isfinite(slack):  # else float sums overflow: rescore every candidate
            scores = np.zeros(len(shortlist))
            for clause in cnf.clauses:
                scores[satisfied(clause.literals, shortlist)] += clause.weight
            shortlist = shortlist[scores >= scores.max() - slack]
        exact = np.zeros(len(shortlist), dtype=object)
        for clause, weight in zip(cnf.clauses, weights):
            exact[satisfied(clause.literals, shortlist)] += weight
        local = int(np.argmax(exact))  # the first maximum: the smallest assignment
        if exact[local] > best_weight:
            best_weight, best_index = exact[local], int(shortlist[local])
    values = {var: bool((best_index >> shift[var]) & 1) for var in ids}
    return _finish(cnf, values)


# --- branch and bound ---

class _Search:
    """The search state, updated in place one assignment at a time.

    Literal ``2 * pos + value`` is the variable at position ``pos`` in
    id order with polarity ``value``, and ``lit ^ 1`` is its opposite;
    ``occurs[lit]`` lists the clauses holding it. ``left`` counts each
    clause's unassigned literals, 0 once the clause is closed: satisfied,
    or falsified by its last literal. The running totals are the open
    weight holding each literal (``incident``) and holding it as the
    last unassigned literal (``unit``), the open weight (``undecided``)
    and the satisfied weight (``banked``). Only the literals of
    unassigned variables are ever read, so assigning a variable leaves
    its own two totals stale.
    """

    def __init__(self, clauses: list[tuple[tuple[int, ...], int]], count: int):
        occurs: list[list[int]] = [[] for _ in range(2 * count)]
        incident, unit, left, undecided = [0] * (2 * count), [0] * (2 * count), [], 0
        for index, (literals, weight) in enumerate(clauses):
            for lit in literals:
                occurs[lit].append(index)
                incident[lit] += weight
            if len(literals) == 1:
                unit[literals[0]] += weight
            left.append(len(literals))
            undecided += weight
        self.clauses, self.occurs, self.left = clauses, occurs, left
        self.incident, self.unit, self.undecided = incident, unit, undecided
        self.values: list[Optional[bool]] = [None] * count
        self.banked = 0

    def branch(self) -> _Search:
        """A copy to search one branch in; the clauses and occurrence lists stay shared."""
        other = object.__new__(_Search)
        other.clauses, other.occurs = self.clauses, self.occurs
        other.undecided, other.banked = self.undecided, self.banked
        other.incident, other.unit = self.incident[:], self.unit[:]
        other.left, other.values = self.left[:], self.values[:]
        return other

    def assign(self, pos: int, value: bool) -> None:
        """Set one variable, visiting only the clauses on its two occurrence lists."""
        clauses, left, incident, unit, values = (
            self.clauses, self.left, self.incident, self.unit, self.values)
        values[pos] = value
        satisfied = emptied = 0
        for index in self.occurs[2 * pos + value]:
            if left[index]:
                literals, weight = clauses[index]
                left[index] = 0
                satisfied += weight
                for lit in literals:
                    if values[lit >> 1] is None:
                        incident[lit] -= weight
        for index in self.occurs[2 * pos + (not value)]:
            if left[index]:
                literals, weight = clauses[index]
                left[index] -= 1
                if not left[index]:  # falsified, it simply drops out
                    emptied += weight
                elif left[index] == 1:
                    for lit in literals:
                        if values[lit >> 1] is None:
                            unit[lit] += weight
                            break
        self.banked += satisfied
        self.undecided -= satisfied + emptied

    def propagate(self) -> None:
        """Assign every forced literal.

        A literal is forced once the unit clauses on it weigh at least as
        much as every clause holding the opposite literal together; a pure
        literal is the case with nothing against it. Flipping toward a
        forced literal never loses weight, and because the optimum is
        unique (see :func:`solve`) it already holds every forced literal.
        Forcing one literal keeps the others forced, so the order in
        which they are found does not change the result.
        """
        incident, unit, values = self.incident, self.unit, self.values
        forced = True
        while forced:
            forced = False
            for pos in range(len(values)):
                if values[pos] is None:
                    if unit[2 * pos + 1] >= incident[2 * pos]:
                        self.assign(pos, True)
                        forced = True
                    elif unit[2 * pos] >= incident[2 * pos + 1]:
                        self.assign(pos, False)
                        forced = True


def _optimize(search: _Search, best: dict) -> None:
    """Record in ``best`` the subproblem's best leaf if it beats the incumbent."""
    search.propagate()
    if not search.undecided:
        if search.banked > best["weight"]:
            best["weight"], best["values"] = search.banked, search.values
        return
    incident, unit = search.incident, search.unit
    # one pass over the unassigned variables: what their unit clauses must
    # lose, and the one with the most incident weight (the lowest on a tie)
    lost, pos, most = 0, -1, -1
    for at, value in enumerate(search.values):
        if value is None:
            negative, positive = 2 * at, 2 * at + 1
            lost += min(unit[negative], unit[positive])
            if incident[negative] + incident[positive] > most:
                pos, most = at, incident[negative] + incident[positive]
    if search.banked + search.undecided - lost <= best["weight"]:
        return
    first = incident[2 * pos + 1] > incident[2 * pos]
    # the second branch takes this node's own state: nothing reads it after
    for value, child in ((first, search.branch()), (not first, search)):
        child.assign(pos, value)
        _optimize(child, best)


def solve(cnf: WeightedCnf) -> Assignment:
    """Exact optimum by branch and bound over integer weights.

    Clause weights become exact integers (:func:`_integer_weights`),
    shifted left by n bits for n variables. The tie rule then joins
    the objective as a soft unit clause ¬x_i of weight 2**(n-1-i) for
    the i-th variable in id order: together these weigh less than one
    unit of a shifted weight, so they only decide between optima, and
    they decide for the lexicographically smallest one, which makes the
    optimum unique. One search (propagation, an upper bound of the
    remaining weight less what the unit clauses must lose, branching on
    the variable with the most incident weight, lowest id on a tie,
    heavier polarity first) records the values of its best leaf. The
    bound prunes only subproblems with nothing better than a leaf
    already found, and the tie-break units are ordinary soft clauses
    in it, so the unique optimum is never pruned and the values match
    ``solve_brute``. The search state (:class:`_Search`) holds an
    occurrence list per literal and running totals of incident, unit,
    undecided and banked weight, so an assignment touches only the
    clauses that hold its variable.
    """
    ids = sorted(cnf.variables)
    count = len(ids)
    position = {var: 2 * pos for pos, var in enumerate(ids)}
    clauses = [(tuple([position[var] + polarity for var, polarity in clause.literals]), weight)
               for clause, weight in zip(cnf.clauses, _integer_weights(cnf, count))]
    clauses += [((2 * pos,), 1 << (count - 1 - pos)) for pos in range(count)]
    search = _Search(clauses, count)
    best = {"weight": -1, "values": None}  # weights are >= 0: the first leaf is kept
    _optimize(search, best)
    return _finish(cnf, dict(zip(ids, best["values"])))


def assignment_by_node(cnf: WeightedCnf, assignment: Assignment) -> dict[str, bool]:
    """The assignment re-keyed by node id."""
    return {node_id: assignment.values[var] for var, node_id in cnf.variables.items()}


# --- DIMACS WCNF interop ---

def _sidecar_path(path: Union[str, Path]) -> Path:
    return Path(str(path) + ".map.json")


def _scaled_weight(weight: float) -> int:
    scaled = int(round(weight * WCNF_SCALE))
    if scaled == 0:
        scaled = 1  # the format cannot express a zero-weight soft clause
    if scaled > _MAX_WCNF_WEIGHT:
        raise WeightOverflow(f"weight {weight} exceeds the integer range at scale {WCNF_SCALE}")
    return scaled


def export_wcnf(cnf: WeightedCnf, path: Union[str, Path]) -> Path:
    """Write ``p wcnf`` format with integerized weights plus a sidecar map.

    Weights are multiplied by ``WCNF_SCALE`` and rounded (values rounding to
    zero are clamped to 1); the header's top value is the total plus
    one, so no soft clause ever reaches it. The sidecar JSON records
    the scale, the file-variable to node-id map and each clause's
    origin, letting :func:`import_wcnf` restore provenance.
    """
    path = Path(path)
    ids = sorted(cnf.variables)
    index = {var: position + 1 for position, var in enumerate(ids)}
    weights = [_scaled_weight(clause.weight) for clause in cnf.clauses]
    top = sum(weights) + 1
    if top > _MAX_WCNF_WEIGHT:
        raise WeightOverflow(f"total weight {top} exceeds the integer range")
    lines = [f"p wcnf {len(ids)} {len(cnf.clauses)} {top}"]
    for clause, weight in zip(cnf.clauses, weights):
        rendered = " ".join(str(index[var] if polarity else -index[var])
                            for var, polarity in clause.literals)
        lines.append(f"{weight} {rendered} 0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = {
        "scale": WCNF_SCALE,
        "variables": {str(index[var]): cnf.variables[var] for var in ids},
        "origins": [clause.origin.value for clause in cnf.clauses],
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n",
                                   encoding="utf-8")
    return path


def _parse_header(tokens: list[str], line_no: int) -> tuple[int, int, int]:
    if len(tokens) != 5 or tokens[0] != "p" or tokens[1] != "wcnf":
        raise ParseError("header must read 'p wcnf <vars> <clauses> <top>'", line_no)
    try:
        nvars, nclauses, top = (int(tok) for tok in tokens[2:])
    except ValueError:
        raise ParseError("header counts must be integers", line_no) from None
    if nvars < 0 or nclauses < 0 or top < 1:
        raise ParseError("header counts out of range", line_no)
    if nvars > MAX_WCNF_VARIABLES:
        raise ParseError(f"header declares more than {MAX_WCNF_VARIABLES} variables", line_no)
    return nvars, nclauses, top


def import_wcnf(path: Union[str, Path]) -> WeightedCnf:
    """Read a DIMACS WCNF file back into a clause set.

    The sidecar map that :func:`export_wcnf` writes next to the file is
    read when present; without it, variables get synthetic
    names and every clause is tagged with the external origin. Clauses
    at or above the header's top value (hard clauses elsewhere) are
    kept as very heavy soft clauses. Every fault of the input is a
    :class:`ParseError` with its line, sidecar-level problems at line 0:
    a line that is not UTF-8 text, a weight that is beyond the float
    range at the file's scale, and a header declaring more than
    ``MAX_WCNF_VARIABLES`` variables among them.
    """
    path = Path(path)
    sidecar = _sidecar_path(path)
    scale = WCNF_SCALE
    names: dict[int, str] = {}
    origins: list[ClauseOrigin] = []
    if sidecar.exists():
        try:
            mapping = parse_json(sidecar.read_text(encoding="utf-8"))
            scale = mapping.get("scale", WCNF_SCALE)
            names = {int(key): str(value)
                     for key, value in mapping.get("variables", {}).items()}
            origins = [ClauseOrigin(value) for value in mapping.get("origins", [])]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"unusable sidecar map: {exc}", 0) from exc
        if type(scale) is not int or scale <= 0:
            raise ParseError(f"sidecar scale {scale!r} is not a positive integer", 0)

    header: Optional[tuple[int, int, int]] = None
    clauses: list[WeightedClause] = []
    last_line = 0
    # an undecodable byte is kept as a lone surrogate, which names its line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, start=1):
            last_line = line_no
            line = raw.strip()
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("line is not UTF-8 text", line_no) from None
            if not line or line.startswith("c"):
                continue
            tokens = line.split()
            if header is None:
                header = _parse_header(tokens, line_no)
                continue
            nvars, nclauses, _ = header
            if len(clauses) == nclauses:
                raise ParseError(f"more than the declared {nclauses} clauses", line_no)
            try:
                numbers = [int(tok) for tok in tokens]
            except ValueError:
                raise ParseError(f"non-integer token in clause: {line!r}", line_no) from None
            if len(numbers) < 3:
                raise ParseError("clause needs a weight, a literal and the 0 terminator",
                                 line_no)
            if numbers[-1] != 0:
                raise ParseError("clause does not end with 0", line_no)
            if 0 in numbers[1:-1]:
                raise ParseError("literal 0 inside a clause body", line_no)
            weight = numbers[0]
            if weight < 1:
                raise ParseError(f"clause weight {weight} must be positive", line_no)
            literals = []
            for literal in numbers[1:-1]:
                var = abs(literal)
                if var > nvars:
                    raise ParseError(f"variable {var} beyond the declared {nvars}", line_no)
                literals.append((var, literal > 0))
            origin = origins[len(clauses)] if len(clauses) < len(origins) \
                else ClauseOrigin.EXTERNAL
            try:
                clauses.append(WeightedClause(literals=tuple(literals),
                                              weight=weight / scale, origin=origin))
            except OverflowError:
                raise ParseError(f"clause weight at scale {scale} is beyond the float range",
                                 line_no) from None
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from exc
    if header is None:
        raise ParseError("no header line found", max(last_line, 1))
    nvars, nclauses, _ = header
    if len(clauses) != nclauses:
        raise ParseError(f"found {len(clauses)} clauses, header declares {nclauses}",
                         max(last_line, 1))
    variables = {var: names.get(var, f"v{var}") for var in range(1, nvars + 1)}
    return WeightedCnf(variables=variables, clauses=clauses)
