"""Solver tests: evaluation, optimality, tie-breaking, the exchange format."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from maieutic.core import ClauseOrigin, WeightedClause, WeightedCnf
from maieutic.errors import (
    ParseError,
    TooManyVariables,
    UnassignedVariable,
    WeightOverflow,
)
from maieutic import solver
from maieutic.solver import (
    MAX_BRUTE_VARIABLES,
    MAX_WCNF_VARIABLES,
    WCNF_SCALE,
    Assignment,
    assignment_by_node,
    evaluate,
    export_wcnf,
    import_wcnf,
    solve,
    solve_brute,
)
from worlds import random_cnf


def _cnf(clause_specs, n_vars):
    clauses = [WeightedClause(literals=tuple(literals), weight=weight,
                              origin=ClauseOrigin.EXTERNAL)
               for literals, weight in clause_specs]
    return WeightedCnf(variables={v: f"n{v}" for v in range(1, n_vars + 1)},
                       clauses=clauses)


# --- evaluation ---

def test_evaluate_hand_example():
    cnf = _cnf([
        ([(1, True)], 0.6),
        ([(1, False)], 0.4),
        ([(1, True), (2, False)], 0.25),
    ], n_vars=2)
    satisfied, violated = evaluate(cnf, {1: True, 2: True})
    assert satisfied == pytest.approx(0.6 + 0.25)
    assert violated == [1]
    satisfied, violated = evaluate(cnf, {1: False, 2: True})
    assert satisfied == pytest.approx(0.4)
    assert violated == [0, 2]


def test_evaluate_requires_every_variable():
    cnf = _cnf([([(1, True), (2, True)], 1.0)], n_vars=2)
    with pytest.raises(UnassignedVariable):
        evaluate(cnf, {1: True})


@pytest.mark.parametrize("variables", [{1: "a", 2: "b"}, {5: "a", 9: "b"}],
                         ids=["ids-1-to-n", "sparse-ids"])
@pytest.mark.parametrize("undeclared", [0, -1, 3, 7])
def test_a_built_clause_set_takes_no_clause_on_an_undeclared_variable(variables, undeclared):
    first, second = variables
    stray = WeightedClause(((first, False), (undeclared, True)), 0.5, ClauseOrigin.EXTERNAL)
    with pytest.raises(ValueError, match=f"undeclared variable {undeclared}"):
        WeightedCnf(variables=variables, clauses=[stray])
    given = dict(variables)
    cnf = WeightedCnf(variables=given, clauses=[
        WeightedClause(((first, True), (second, False)), 1.0, ClauseOrigin.EXTERNAL)])
    # sealed: no clause and no variable gets in after the check
    with pytest.raises(AttributeError):
        cnf.clauses.append(stray)
    with pytest.raises(TypeError):
        cnf.variables[undeclared] = "x"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cnf.clauses = [stray]
    given[undeclared] = "x"  # the set keeps its own copy of the map
    assert cnf.variables == variables
    assert evaluate(cnf, {first: True, second: True}) == (1.0, [])
    assert solve(cnf).values == {first: False, second: False}


def test_assignment_lookup_by_node():
    cnf = _cnf([([(1, True)], 1.0)], n_vars=2)
    result = solve(cnf)
    assert result.values[1] is True
    mapped = assignment_by_node(cnf, result)
    assert mapped == {"n1": True, "n2": False}


# --- optimality and tie-breaking ---

def test_unit_conflict_resolves_by_weight():
    cnf = _cnf([([(1, True)], 0.9), ([(1, False)], 0.3)], n_vars=1)
    for solver in (solve, solve_brute):
        result = solver(cnf)
        assert result.values == {1: True}
        assert result.satisfied_weight == pytest.approx(0.9)
        assert result.violated == [1]


def test_exact_tie_prefers_false_on_the_smallest_variable():
    # both polarities satisfy weight 1.0; the contract picks the
    # lexicographically smallest assignment, False before True
    cnf = _cnf([([(1, True)], 1.0), ([(1, False)], 1.0)], n_vars=1)
    for solver in (solve, solve_brute):
        assert solver(cnf).values == {1: False}


def test_tie_across_variables_is_lexicographic():
    cnf = _cnf([([(1, True), (2, True)], 1.0)], n_vars=2)
    for solver in (solve, solve_brute):
        assert solver(cnf).values == {1: False, 2: True}


def test_unconstrained_variables_default_false():
    cnf = _cnf([([(2, True)], 0.5)], n_vars=3)
    for solver in (solve, solve_brute):
        result = solver(cnf)
        assert result.values == {1: False, 2: True, 3: False}
        assert result.violated == []


def test_solvers_agree_on_random_instances():
    rng = np.random.default_rng(20240817)
    for _ in range(120):
        cnf = random_cnf(rng, max_vars=12, max_clauses=40)
        fast = solve(cnf)
        brute = solve_brute(cnf)
        assert fast.satisfied_weight == brute.satisfied_weight
        assert fast.values == brute.values
        assert fast.violated == brute.violated


def test_solvers_agree_on_a_dense_tree_sized_instance():
    # NLI-style weight-1 binary clauses over most ordered pairs, plus a
    # belief unit clause per variable: the shape of a dense kept tree
    rng = np.random.default_rng(90210)
    n_vars = 16
    specs = [([(var, bool(rng.integers(0, 2)))], float(rng.uniform(0.05, 1.0)))
             for var in range(1, n_vars + 1)]
    for first in range(1, n_vars + 1):
        for second in range(1, n_vars + 1):
            if first != second and rng.uniform() < 0.8:
                specs.append(([(first, False), (second, bool(rng.integers(0, 2)))], 1.0))
    cnf = _cnf(specs, n_vars=n_vars)
    assert len(cnf.clauses) > 200
    fast = solve(cnf)
    brute = solve_brute(cnf)
    assert fast.values == brute.values
    assert fast.satisfied_weight == brute.satisfied_weight
    assert fast.violated == brute.violated


def test_the_unit_bound_prunes_a_dense_instance(monkeypatch):
    # 19 variables with a belief unit clause each and weight-1 implications
    # over 85% of the ordered pairs: with a bound of the remaining weight
    # alone the search makes 73 calls here
    rng = np.random.default_rng(20243)
    n_vars = 19
    specs = [([(var, bool(rng.integers(0, 2)))], float(rng.uniform(0.05, 1.0)))
             for var in range(1, n_vars + 1)]
    for first in range(1, n_vars + 1):
        for second in range(1, n_vars + 1):
            if first != second and rng.uniform() < 0.85:
                specs.append(([(first, False), (second, bool(rng.integers(0, 2)))], 1.0))
    cnf = _cnf(specs, n_vars=n_vars)
    assert len(cnf.clauses) == 314
    calls = []
    optimize = solver._optimize

    def counted(search, best):
        calls.append(1)
        optimize(search, best)

    monkeypatch.setattr(solver, "_optimize", counted)
    solve(cnf)
    assert len(calls) == 13


@pytest.mark.parametrize("n_vars, want", [(2, {1: False, 2: False}), (0, {})])
def test_instances_without_clauses(n_vars, want):
    cnf = _cnf([], n_vars=n_vars)
    for solver in (solve, solve_brute):
        assert solver(cnf) == Assignment(values=want, satisfied_weight=0.0, violated=[])


def test_long_clauses_from_the_exchange_format(tmp_path):
    # the four-literal clause is worth breaking one of the three lightest
    # units for; of the tied optima the smallest sets variable 3
    path = tmp_path / "long.wcnf"
    path.write_text("p wcnf 4 6 3000001\n"
                    "1000000 1 2 3 4 0\n"
                    "300000 1 -2 4 0\n"
                    "400000 -1 0\n"
                    "400000 -2 0\n"
                    "400000 -3 0\n"
                    "600000 -4 0\n", encoding="utf-8")
    cnf = import_wcnf(path)
    fast = solve(cnf)
    assert fast == solve_brute(cnf)
    assert fast.values == {1: False, 2: False, 3: True, 4: False}
    assert fast.violated == [4]


def test_large_weights_still_break_ties_exactly(tmp_path):
    # one ulp at 2.7e8 is about 6e-8, so an absolute tolerance on float
    # sums cannot tell these optima apart
    path = tmp_path / "scales.wcnf"
    path.write_text("p wcnf 3 4 268435456100002\n"
                    "1000000 1 -2 -3 0\n"
                    "1 -1 0\n"
                    "100000 -1 -2 0\n"
                    "268435455000000 -1 0\n", encoding="utf-8")
    cnf = import_wcnf(path)
    fast = solve(cnf)
    brute = solve_brute(cnf)
    assert fast.values == brute.values == {1: False, 2: False, 3: False}
    assert fast.satisfied_weight == brute.satisfied_weight


def test_solvers_agree_when_float_sums_overflow():
    cnf = _cnf([([(1, True)], 1e308), ([(2, True)], 1e308), ([(1, False)], 1.0)],
               n_vars=2)
    assert solve(cnf).values == solve_brute(cnf).values == {1: True, 2: True}


def test_solve_is_deterministic():
    rng = np.random.default_rng(7)
    cnf = random_cnf(rng, max_vars=15, max_clauses=50)
    first = solve(cnf)
    second = solve(cnf)
    assert first == second


def test_scaling_weights_by_a_power_of_two_preserves_the_assignment():
    rng = np.random.default_rng(11)
    cnf = random_cnf(rng, max_vars=10, max_clauses=30)
    scaled = WeightedCnf(
        variables=dict(cnf.variables),
        clauses=[WeightedClause(literals=c.literals, weight=c.weight * 4.0,
                                origin=c.origin) for c in cnf.clauses],
    )
    base = solve(cnf)
    assert solve(scaled).values == base.values
    assert solve(scaled).satisfied_weight == base.satisfied_weight * 4.0


def test_brute_force_variable_limit():
    n_vars = MAX_BRUTE_VARIABLES + 1
    cnf = _cnf([([(n_vars, True)], 1.0)], n_vars=n_vars)
    with pytest.raises(TooManyVariables):
        solve_brute(cnf)


# --- exchange format ---

def _golden_cnf():
    return WeightedCnf(
        variables={1: "root", 2: "T.0"},
        clauses=[
            WeightedClause(literals=((1, True),), weight=0.75,
                           origin=ClauseOrigin.BELIEF),
            WeightedClause(literals=((1, True), (2, False)), weight=0.5,
                           origin=ClauseOrigin.CONSISTENCY),
        ],
    )


def test_export_matches_golden_bytes(tmp_path, data_dir):
    path = export_wcnf(_golden_cnf(), tmp_path / "instance.wcnf")
    assert path.read_bytes() == (data_dir / "instance.wcnf").read_bytes()
    assert (tmp_path / "instance.wcnf.map.json").read_bytes() == \
        (data_dir / "instance.wcnf.map.json").read_bytes()


def test_import_restores_the_golden_instance(data_dir):
    cnf = import_wcnf(data_dir / "instance.wcnf")
    assert cnf.variables == {1: "root", 2: "T.0"}
    assert [c.literals for c in cnf.clauses] == [((1, True),),
                                                 ((1, True), (2, False))]
    assert [c.origin for c in cnf.clauses] == [ClauseOrigin.BELIEF,
                                               ClauseOrigin.CONSISTENCY]
    assert cnf.clauses[0].weight == pytest.approx(0.75, abs=1e-6)
    assert cnf.clauses[1].weight == pytest.approx(0.5, abs=1e-6)


def test_round_trip_random_instances(tmp_path):
    rng = np.random.default_rng(3)
    for index in range(10):
        cnf = random_cnf(rng, max_vars=14, max_clauses=30)
        path = export_wcnf(cnf, tmp_path / f"case{index}.wcnf")
        back = import_wcnf(path)
        assert back.variables == cnf.variables
        assert [c.literals for c in back.clauses] == \
            [c.literals for c in cnf.clauses]
        assert [c.origin for c in back.clauses] == \
            [c.origin for c in cnf.clauses]
        for restored, original in zip(back.clauses, cnf.clauses):
            assert restored.weight == pytest.approx(original.weight, abs=1e-6)


def test_tiny_weights_clamp_to_the_smallest_integer(tmp_path):
    cnf = _cnf([([(1, True)], 1e-9)], n_vars=1)
    path = export_wcnf(cnf, tmp_path / "tiny.wcnf")
    assert path.read_text().splitlines()[1].startswith("1 ")
    assert import_wcnf(path).clauses[0].weight == pytest.approx(1 / WCNF_SCALE)


def test_huge_weights_refuse_to_export(tmp_path):
    cnf = _cnf([([(1, True)], 1e20)], n_vars=1)
    with pytest.raises(WeightOverflow):
        export_wcnf(cnf, tmp_path / "huge.wcnf")


def test_import_without_sidecar_uses_placeholder_names(tmp_path):
    path = tmp_path / "bare.wcnf"
    path.write_text("c a comment line\n"
                    "p wcnf 2 2 100\n"
                    "150 1 0\n"
                    "10 -1 2 0\n", encoding="utf-8")
    cnf = import_wcnf(path)
    assert cnf.variables == {1: "v1", 2: "v2"}
    assert all(c.origin is ClauseOrigin.EXTERNAL for c in cnf.clauses)
    # a clause at or above the header's top value is kept as very heavy soft
    assert cnf.clauses[0].weight == pytest.approx(150 / WCNF_SCALE)
    assert cnf.clauses[1].literals == ((1, False), (2, True))


def test_import_sidecar_scale_applies(tmp_path):
    path = tmp_path / "scaled.wcnf"
    path.write_text("p wcnf 1 1 11\n10 1 0\n", encoding="utf-8")
    sidecar = tmp_path / "scaled.wcnf.map.json"
    sidecar.write_text('{"scale": 10, "variables": {"1": "root"}, '
                       '"origins": ["belief"]}\n', encoding="utf-8")
    cnf = import_wcnf(path)
    assert cnf.clauses[0].weight == pytest.approx(1.0)
    assert cnf.variables == {1: "root"}
    assert cnf.clauses[0].origin is ClauseOrigin.BELIEF


@pytest.mark.parametrize("body,line", [
    ("p cnf 1 1 10\n1 1 0\n", 1),               # wrong format tag
    ("p wcnf 1 1\n1 1 0\n", 1),                 # header too short
    ("p wcnf 1 1 10\n1 x 0\n", 2),              # non-integer token
    ("p wcnf 1 1 10\n1 1\n", 2),                # missing clause terminator
    ("p wcnf 1 1 10\n1 0 1 0\n", 2),            # literal 0 inside the body
    ("p wcnf 1 1 10\n0 1 0\n", 2),              # weight below 1
    ("p wcnf 1 1 10\n1 2 0\n", 2),              # variable beyond the header
    ("p wcnf 1 1 10\n1 1 1 0\n", 2),            # duplicate variable
    ("p wcnf 1 2 10\n1 1 0\n1 -1 0\n1 1 0\n", 4),  # more clauses than declared
    ("p wcnf 1 2 10\n1 1 0\n", 2),              # fewer clauses than declared
    ("c only comments\n", 1),                   # no header at all
    pytest.param("p wcnf 1 1 10\n1" + "0" * 400 + " 1 0\n", 2,
                 id="weight beyond the float range"),
    pytest.param("p wcnf 1 1 10\nc \udcff\n1 1 0\n", 2, id="a line not UTF-8"),
    pytest.param(f"p wcnf {MAX_WCNF_VARIABLES + 1} 0 1\n", 1, id="too many variables"),
])
def test_import_rejects_malformed_files(tmp_path, body, line):
    path = tmp_path / "broken.wcnf"
    # a lone surrogate stands for a byte that is not UTF-8
    path.write_bytes(body.encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as err:
        import_wcnf(path)
    assert err.value.line == line


def test_import_rejects_unusable_sidecar(tmp_path):
    path = tmp_path / "ok.wcnf"
    path.write_text("p wcnf 1 1 10\n1 1 0\n", encoding="utf-8")
    sidecar = tmp_path / "ok.wcnf.map.json"
    for body in ('{"scale": "not a number"}', "[]", '{"scale": null}',
                 '{"variables": []}', '{"origins": 3}', '{"scale": 1.5}',
                 '{"scale": true}'):
        sidecar.write_text(body, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            import_wcnf(path)
        assert err.value.line == 0, body


def test_parse_error_message_carries_the_line():
    err = ParseError("bad token", 7)
    assert err.line == 7
    assert "line 7" in str(err)
