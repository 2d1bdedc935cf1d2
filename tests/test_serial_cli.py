"""Text grammar, serialization helpers, and the command-line interface
end to end (exit codes, formats, determinism)."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fthresh import (
    CapabilityError,
    FThreshError,
    MonomialIdeal,
    OrdinaryPowers,
    SymbolicSquarefree,
    UnsupportedInputError,
    cli,
)
from fthresh.cli import build_parser, main
from fthresh.serial import (
    ParseError,
    decimal_string,
    format_fraction,
    parse_fraction,
    parse_ideal,
    parse_monomial_text,
    read_source,
)

from conftest import random_filtration

F = Fraction


# ------------------------------------------------------------------ #
# grammar
# ------------------------------------------------------------------ #


def test_parse_fraction():
    assert parse_fraction(" 3/4 ") == F(3, 4)
    assert parse_fraction("5") == 5
    with pytest.raises(ParseError) as err:
        parse_fraction("three")
    assert err.value.token == "three" and err.value.position == 0


def test_decimal_string_truncates():
    assert decimal_string(F(5, 8), 3) == "0.625"
    assert decimal_string(F(-5, 8), 3) == "-0.625"
    assert decimal_string(F(2, 3), 4) == "0.6666"
    assert decimal_string(3, 2) == "3.00"
    assert decimal_string(F(5, 2), 1) == "2.5"


def test_decimal_string_rejects_negative_digits():
    with pytest.raises(UnsupportedInputError):
        decimal_string(F(1, 3), -2)


def test_format_fraction():
    assert format_fraction(F(5, 6)) == "5/6"
    assert format_fraction(F(14, 7)) == "2"
    assert format_fraction(F(5, 6), decimal=3) == "5/6 (~0.833)"


def test_parse_monomial_text():
    assert parse_monomial_text("x1^2*x3") == [2, 0, 1]
    assert parse_monomial_text("x1^2*x3", nvars=4) == [2, 0, 1, 0]
    assert parse_monomial_text("x2*x2") == [0, 2]
    assert parse_monomial_text("[2,0,1]") == [2, 0, 1]
    assert parse_monomial_text("1") == []
    assert parse_monomial_text("1", nvars=2) == [0, 0]
    for bad in ["", "y2", "x0", "x1^", "[2,-1]", "[2.5]"]:
        with pytest.raises(ParseError):
            parse_monomial_text(bad)
    with pytest.raises(ParseError):
        parse_monomial_text("x1*x3", nvars=2)


def test_parse_ideal_forms():
    assert parse_ideal("m", 3) == MonomialIdeal.maximal(3)
    assert parse_ideal("0", 2) == MonomialIdeal.zero(2)
    with pytest.raises(ParseError):
        parse_ideal("m")
    with pytest.raises(ParseError):
        parse_ideal("0")
    obj = parse_ideal('{"vars": 2, "generators": [[2, 0], [0, 3]]}')
    assert obj == MonomialIdeal.from_exponents(2, [[2, 0], [0, 3]])
    arr = parse_ideal("[[2], [0, 3]]")
    assert arr == MonomialIdeal.from_exponents(2, [[2, 0], [0, 3]])
    semi = parse_ideal("x1^2; x2^3")
    assert semi == MonomialIdeal.from_exponents(2, [[2, 0], [0, 3]])
    assert parse_ideal("x1^2; x2^3;") == semi
    # exponent tuples are generators of the text grammar, too
    assert parse_ideal("[2,0]; [0,3]") == semi
    assert parse_ideal("[2,0]", 2) == MonomialIdeal.from_exponents(2, [[2, 0]])
    assert parse_ideal("x1*x2", 3).nvars == 3
    with pytest.raises(ParseError):
        parse_ideal("x1; x2*x3", 2)
    with pytest.raises(ParseError):
        parse_ideal('{"vars": 2, "generators": [[2')


def test_read_source(tmp_path, monkeypatch):
    assert read_source("x1^2") == "x1^2"
    path = tmp_path / "ideal.txt"
    path.write_text("x1; x2\n")
    assert read_source(f"@{path}") == "x1; x2\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("from stdin"))
    assert read_source("-") == "from stdin"
    monkeypatch.setattr("sys.stdin", io.StringIO("again"))
    assert read_source(None) == "again"


# ------------------------------------------------------------------ #
# CLI verbs
# ------------------------------------------------------------------ #


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_nu(capsys):
    code, out = run_cli(
        capsys, "nu", "--ideal", "x1*x2", "--nvars", "2", "-p", "3", "-e", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 9 and data["nu"] == 8 and data["ratio"] == "8/9"
    assert data["status"] == "finite"


def test_cli_nu_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["nu", "--ideal", "x1*x2", "--nvars", "2", "-p", "3"])
    assert err.value.code == 2


def test_cli_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobenius"])
    assert err.value.code == 2


def test_cli_nu_seq_csv(capsys):
    code, out = run_cli(
        capsys,
        "nu-seq", "--ideal", "x1*x2", "--nvars", "2",
        "-p", "2", "--emax", "3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "e,q,nu,ratio",
        "0,1,0,0",
        "1,2,1,1/2",
        "2,4,3,3/4",
        "3,8,7,7/8",
    ]


def test_cli_fthreshold_exact_and_decimal(capsys):
    code, out = run_cli(capsys, "fthreshold", "--ideal", "x1^2;x2^3")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "exact" and data["value"] == "5/6"
    assert data["method"] == "rees_valuation"
    code, out = run_cli(
        capsys, "fthreshold", "--ideal", "x1^2;x2^3", "--decimal", "3"
    )
    assert json.loads(out)["value_decimal"] == "0.833"


def test_cli_fthreshold_from_stdin_filtration(capsys, monkeypatch):
    f = SymbolicSquarefree(
        MonomialIdeal.from_exponents(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(f.to_json())))
    code, out = run_cli(capsys, "fthreshold")
    assert code == 0
    assert json.loads(out)["value"] == "2"


def test_cli_fthreshold_bracket_requires_p(capsys):
    prod = json.dumps(
        {
            "rule": "product",
            "left": {"rule": "ordinary", "ideal": {"vars": 1, "generators": [[2]]}},
            "right": {"rule": "ordinary", "ideal": {"vars": 1, "generators": [[3]]}},
        }
    )
    # level r is (x^{5r}), so the threshold is exactly 1/5, with no p or emax
    code, out = run_cli(capsys, "fthreshold", "--filtration", prod)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "exact" and data["method"] == "body_lp"
    assert data["value"] == "1/5"
    # -p and --emax are not flags of this verb: a usage error
    with pytest.raises(SystemExit) as exc:
        main(["fthreshold", "--filtration", prod, "-p", "2", "--emax", "3"])
    assert exc.value.code == 2


def test_cli_symbolic_table(capsys):
    code, out = run_cli(
        capsys,
        "symbolic", "--ideal", "[[1,1,0],[0,1,1],[1,0,1]]", "--format", "table",
    )
    assert code == 0
    assert "value: 2" in out


def test_cli_rees_and_newton(capsys):
    code, out = run_cli(capsys, "rees", "--ideal", "x1^2;x2^3")
    assert code == 0
    data = json.loads(out)
    assert data["threshold"] == "5/6"
    assert data["rees_valuations"] == [{"normal": [3, 2], "offset": 6}]
    code, out = run_cli(capsys, "newton", "--ideal", "x1^2;x2^3")
    data = json.loads(out)
    assert data["essential_facets"] == [{"normal": [3, 2], "offset": 6}]
    assert len(data["coordinate_facets"]) == 2


def test_cli_waldschmidt(capsys):
    code, out = run_cli(
        capsys, "waldschmidt", "--ideal", "x1^2;x2^3", "--weights", "3,2"
    )
    assert code == 0
    assert json.loads(out)["exact"] == "6"
    code, out = run_cli(capsys, "waldschmidt", "--ideal", "x1^2;x2^3")
    assert json.loads(out)["exact"] == "2"


def test_cli_hypergraph(capsys):
    graph = '{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0]]}'
    code, out = run_cli(capsys, "hypergraph", "--graph", graph, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ordinary_threshold"] == "5/2"
    assert data["symbolic_threshold"] == "3"
    assert data["transitive_equality"] is True


LAW_LEFT = json.dumps(
    {"rule": "ordinary", "ideal": {"vars": 2, "generators": [[1, 1]]}}
)
LAW_RIGHT = json.dumps(
    {"rule": "symbolic", "ideal": {"vars": 2, "generators": [[1, 0], [0, 1]]}}
)


def test_cli_laws(capsys):
    code, out = run_cli(
        capsys, "laws", "--left", LAW_LEFT, "--right", LAW_RIGHT, "-p", "2", "--emax", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["min_law"]["ok"] is True
    assert data["disjoint_laws"]["ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        # display digits below zero
        ("fthreshold", "--ideal", "x1^2;x2^3", "--decimal", "-2"),
        # answers with no flat field, no records and no rows have no CSV form
        ("newton", "--ideal", "x1^2;x2^3", "--format", "csv"),
        ("laws", "--left", LAW_LEFT, "--right", LAW_RIGHT, "-p", "2",
         "--emax", "1", "--format", "csv"),
        # no e at all to answer over
        ("nu-seq", "--ideal", "x1", "-p", "2", "--emax", "-3"),
        ("nu-seq", "--ideal", "x1", "-p", "4", "--emax", "-1"),
        ("laws", "--left", LAW_LEFT, "--right", LAW_RIGHT, "-p", "2", "--emax", "-1"),
    ],
)
def test_cli_vacuous_or_invalid_request_is_typed_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "UnsupportedInputError"


def test_cli_parse_error_exits_1(capsys):
    code, out = run_cli(capsys, "fthreshold", "--ideal", "x1^2;x2^?")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "ParseError" and "x2^?" in err["message"]


def test_cli_missing_file_exits_1(capsys):
    code, out = run_cli(capsys, "fthreshold", "--ideal", "@/no/such/file")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


def test_cli_deterministic_output(capsys):
    args = ("hypergraph", "--graph", '{"n":4,"edges":[[0,1],[1,2],[2,3]]}',
            "--format", "json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_cli_verify_examples(capsys):
    code, out = run_cli(capsys, "verify-examples")
    assert code == 0
    assert out.strip().endswith("20/20 fixtures passed")
    code, out = run_cli(capsys, "verify-examples", "--filter", "odd-cycle")
    assert code == 0 and "4/4 fixtures passed" in out
    code, out = run_cli(
        capsys, "verify-examples", "--corrupt", "ceiling-threshold"
    )
    assert code == 1 and "FAIL" in out
    code, out = run_cli(capsys, "verify-examples", "--format", "json")
    data = json.loads(out)
    assert data["all_pass"] is True and len(data["rows"]) == 20


def test_cli_parser_cache_prints_same_bytes(capsys, monkeypatch):
    """main reuses one parser; a run of different verbs prints the same
    bytes as the same run with a fresh parser per call."""
    calls = [
        ("verify-examples", "--filter", "odd-cycle"),
        ("nu", "--ideal", "x1*x2", "--nvars", "2", "-p", "3", "-e", "2"),
        ("verify-examples", "--filter", "odd-cycle", "--format", "json"),
        ("nu-seq", "--ideal", "x1^2;x2^3", "-p", "2", "--emax", "2", "--format", "table"),
        ("verify-examples", "--filter", "odd-cycle"),
        ("fthreshold", "--ideal", "x1^2;x2^3", "--decimal", "3"),
        ("symbolic", "--ideal", "x1*x2;x2*x3;x1*x3"),
    ]

    def transcript():
        out = []
        for argv in calls:
            code = main(list(argv))
            out.append((code, capsys.readouterr().out))
        return out

    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()
    cached = transcript()
    assert cached[0][1].strip().endswith("4/4 fixtures passed")
    assert json.loads(cached[2][1])["all_pass"] is True
    assert cached[4] == cached[0]
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert transcript() == cached


def test_cli_deep_membership_is_json_error(capsys):
    code, out = run_cli(capsys, "nu", "--ideal", "x1*x2;x1^2;x2^3", "-p", "2", "-e", "12")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "SizeGuardError"


def test_cli_non_object_filtration_is_json_error(capsys):
    code, out = run_cli(capsys, "fthreshold", "--filtration", "[1]")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "UnsupportedInputError"


_IDEAL = {"vars": 2, "generators": [[1, 1]]}


@pytest.mark.parametrize(
    "verb, flag, data",
    [
        ("fthreshold", "--filtration", {"rule": "ceiling", "ideal": _IDEAL, "beta": "1/0"}),
        ("fthreshold", "--filtration", {"rule": "ceiling", "ideal": _IDEAL, "beta": [1]}),
        ("fthreshold", "--filtration", {"rule": "ordinary", "ideal": {"vars": 2, "generators": 5}}),
        ("fthreshold", "--filtration", {"rule": "ordinary", "ideal": [1]}),
        (
            "fthreshold",
            "--filtration",
            {"rule": "veronese", "base": {"rule": "ordinary", "ideal": _IDEAL}, "degree": None},
        ),
        (
            "fthreshold",
            "--filtration",
            {"rule": "prime_power_intersection", "vars": 2, "components": [5]},
        ),
        ("hypergraph", "--graph", [1]),
        ("hypergraph", "--graph", {"n": 3, "edges": 5}),
        ("fthreshold", "--ideal", {"vars": 2}),
        ("fthreshold", "--ideal", [[1, "a"]]),
    ],
)
def test_cli_malformed_json_is_json_error(capsys, verb, flag, data):
    code, out = run_cli(capsys, verb, flag, json.dumps(data))
    assert code == 1
    error = json.loads(out)["error"]
    assert set(error) == {"type", "message"}
    assert error["type"] == "UnsupportedInputError"


@pytest.mark.parametrize("depth", [400, 3000])
def test_cli_deep_descriptor_is_size_guard(capsys, depth):
    # a chain of Veronese annotations, built as text: 400 deep is refused
    # before the descriptor is walked recursively, 3,000 deep already by
    # the JSON decoder
    base = json.dumps({"rule": "ordinary", "ideal": _IDEAL})
    text = '{"rule": "veronese", "degree": 1, "base": ' * depth + base + "}" * depth
    for argv in (("nu", "-p", "2", "-e", "2"), ("waldschmidt", "--weights", "1,1"), ("fthreshold",)):
        code, out = run_cli(capsys, *argv, "--filtration", text)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SizeGuardError"


def test_cli_veronese_descriptor_prints_its_base(capsys):
    # an annotation changes no level: every verb prints its base's answer
    rng = random.Random(16)
    for _ in range(12):
        n = rng.randint(1, 3)
        base = json.dumps(random_filtration(rng, n, depth=rng.randint(0, 2)).to_json())
        other = json.dumps(random_filtration(rng, n, depth=0).to_json())
        annotated = f'{{"rule": "veronese", "degree": {rng.randint(1, 3)}, "base": {base}}}'
        verbs = (
            ("nu-seq", "-p", "2", "--emax", "2", "--filtration"),
            ("fthreshold", "--filtration"),
            ("waldschmidt", "--filtration"),
            ("laws", "-p", "2", "--emax", "1", "--right", other, "--left"),
        )
        for argv in verbs:
            assert run_cli(capsys, *argv, annotated) == run_cli(capsys, *argv, base)


_junk = st.sampled_from([None, True, -1, "1/0", "x", [1], {}])


def _or_junk(strategy):
    """The strategy, or a wrongly typed value one time in four."""
    return st.integers(0, 3).flatmap(lambda k: _junk if k == 0 else strategy)


# well-formed parts live in 2 variables, so composite rules can combine
_exps = st.lists(st.integers(0, 3), min_size=2, max_size=2)
_ideals = _or_junk(
    st.fixed_dictionaries(
        {"vars": _or_junk(st.just(2)), "generators": _or_junk(st.lists(_exps, min_size=1, max_size=3))}
    )
)
_components = st.lists(
    _or_junk(
        st.fixed_dictionaries(
            {
                "support": _or_junk(st.lists(st.integers(0, 1), min_size=1, max_size=2)),
                "weight": _or_junk(st.integers(1, 2)),
            }
        )
    ),
    min_size=1,
    max_size=2,
)
_base_rules = st.fixed_dictionaries(
    {
        "rule": st.sampled_from(
            ["ordinary", "symbolic", "integral_closure", "ceiling", "prime_power_intersection"]
        ),
        "ideal": _ideals,
        "beta": _or_junk(st.sampled_from(["3/2", "2", "1/3"])),
        "vars": _or_junk(st.just(2)),
        "components": _or_junk(_components),
    }
)
_filtrations = _or_junk(
    st.recursive(
        _base_rules,
        lambda inner: st.fixed_dictionaries(
            {
                "rule": st.sampled_from(["product", "intersection", "binomial_sum", "veronese"]),
                "left": _or_junk(inner),
                "right": _or_junk(inner),
                "base": _or_junk(inner),
                "degree": _or_junk(st.integers(1, 2)),
            }
        ),
        max_leaves=3,
    )
)
# well-formed composites, so that every composite rule reaches the router
_sound_leaves = st.fixed_dictionaries(
    {
        "rule": st.sampled_from(["ordinary", "integral_closure"]),
        "ideal": st.fixed_dictionaries(
            {"vars": st.just(2), "generators": st.lists(_exps, min_size=1, max_size=3)}
        ),
    }
)
_sound_composites = st.fixed_dictionaries(
    {
        "rule": st.sampled_from(["product", "intersection", "binomial_sum"]),
        "left": _sound_leaves,
        "right": _sound_leaves,
    }
)
_graphs = _or_junk(
    st.integers(2, 4).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "n": _or_junk(st.just(n)),
                "edges": _or_junk(
                    st.lists(
                        _or_junk(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)),
                        min_size=1,
                        max_size=4,
                    )
                ),
            }
        )
    )
)


# ideal texts: the x1^2*x3 grammar, exponent tuples and JSON, each with
# malformed tokens mixed in
_factors = st.one_of(
    st.builds("x{}^{}".format, st.integers(1, 3), st.integers(0, 3)),
    st.builds("x{}".format, st.integers(1, 3)),
    st.sampled_from(["x0", "y", "x1^", "^2", "", "x1^-1", "x1^2^3", " x2 "]),
)
_tuple_texts = st.lists(
    st.one_of(st.integers(0, 3), st.sampled_from([-1, "a", None, 1.5, [1]])),
    max_size=3,
).map(json.dumps)
_generator_texts = st.one_of(
    st.lists(_factors, min_size=1, max_size=3).map("*".join),
    _tuple_texts,
    st.sampled_from(["1", "m", "0", "", "[1,2", "x1;"]),
)
_ideal_texts = st.one_of(
    st.lists(_generator_texts, min_size=1, max_size=3).map(";".join),
    _ideals.map(json.dumps),
    st.lists(_or_junk(_exps), max_size=3).map(json.dumps),
    st.sampled_from(["m", "0", "1", "", "{", "[", '[[1,"a"]]', '{"vars":2}', "{]"]),
)


def _error_names(root):
    names, todo = set(), [root]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.just(("fthreshold", "--filtration")), _filtrations.map(json.dumps))
    | st.tuples(st.just(("fthreshold", "--filtration")), _sound_composites.map(json.dumps))
    | st.tuples(st.just(("hypergraph", "--graph")), _graphs.map(json.dumps))
    | st.tuples(st.just(("fthreshold", "--ideal")), _ideal_texts)
)
def test_cli_fuzzed_json_never_escapes(case):
    command, text = case
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([*command, text])
    assert code in (0, 1)
    if code == 1:
        error = json.loads(buf.getvalue())["error"]
        assert set(error) == {"type", "message"}
        assert error["type"] in _error_names(FThreshError), error
        # every filtration gets an exact threshold: none is out of reach
        if command == ("fthreshold", "--filtration"):
            assert error["type"] not in _error_names(CapabilityError), error
