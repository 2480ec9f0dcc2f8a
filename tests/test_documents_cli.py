import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possinfo import (
    ConvergenceSeries,
    DiscreteDistribution,
    MaxU,
    MinDistance,
    PiecewisePossibility,
    SchemaError,
    emit_csv,
    parse_distribution,
    parse_problem,
    parse_tau,
    serialize_distribution,
)
from possinfo.cli import run_command


class TestParseDistribution:
    def test_discrete(self):
        d = parse_distribution('{"kind":"discrete","labels":["a","b"],"values":[1,0.5]}')
        assert isinstance(d, DiscreteDistribution)
        assert d.labels == ("a", "b") and d.values == (1.0, 0.5) and d.is_normalized

    def test_piecewise(self):
        f = parse_distribution('{"kind":"piecewise_linear","points":[[0,1],[1,0]]}')
        assert isinstance(f, PiecewisePossibility)
        assert f(0.25) == 0.75

    def test_value_out_of_range_names_index(self):
        with pytest.raises(SchemaError, match="index 1"):
            parse_distribution('{"kind":"discrete","labels":["a","b"],"values":[1,1.5]}')

    def test_json_error_carries_position(self):
        with pytest.raises(SchemaError, match="line 1"):
            parse_distribution('{"kind": }')

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="missing required field 'values'"):
            parse_distribution('{"kind":"discrete","labels":["a"]}')

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown distribution kind"):
            parse_distribution('{"kind":"histogram","values":[1]}')


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestRoundTrip:
    @settings(max_examples=150)
    @given(st.lists(unit_floats, min_size=1, max_size=8))
    def test_discrete_round_trip_is_bit_exact(self, values):
        d = DiscreteDistribution(tuple(f"x{i}" for i in range(len(values))), values)
        assert parse_distribution(serialize_distribution(d)) == d

    @settings(max_examples=150)
    @given(st.lists(unit_floats, min_size=2, max_size=6))
    def test_piecewise_round_trip_is_bit_exact(self, values):
        n = len(values)
        xs = [i / (n - 1) for i in range(n)]
        xs[-1] = 1.0
        f = PiecewisePossibility(list(zip(xs, values)))
        assert parse_distribution(serialize_distribution(f)) == f

    def test_seventeen_digit_numbers(self):
        d = DiscreteDistribution(("a",), (0.1 + 0.2,))
        text = serialize_distribution(d)
        assert "0.30000000000000004" in text
        assert parse_distribution(text).values == (0.30000000000000004,)


class TestParseTauAndProblem:
    def test_tau(self):
        tau = parse_tau('{"kind":"tau","points":[[0,0],[0.5,0.25],[1,1]]}')
        assert tau(0.5) == 0.25

    def test_problem_max_u(self):
        text = json.dumps(
            {
                "labels": ["a", "b"],
                "constraints": [
                    {"coefficients": [1, 0], "relation": "=", "bound": 0.4}
                ],
                "objective": {"type": "max_u"},
            }
        )
        prob = parse_problem(text)
        assert isinstance(prob.objective, MaxU)
        assert prob.constraints[0].relation == "="
        assert prob.require_normalized

    def test_problem_min_distance(self):
        text = json.dumps(
            {
                "labels": ["a", "b"],
                "constraints": [],
                "objective": {
                    "type": "min_distance",
                    "metric": "K",
                    "prior": {"kind": "discrete", "labels": ["a", "b"], "values": [1, 0.5]},
                },
                "require_normalized": False,
            }
        )
        prob = parse_problem(text)
        assert isinstance(prob.objective, MinDistance)
        assert prob.objective.metric == "K"
        assert not prob.require_normalized

    def test_constraint_diagnostics(self):
        text = json.dumps(
            {
                "labels": ["a"],
                "constraints": [{"coefficients": [1], "relation": "<", "bound": 1}],
                "objective": {"type": "max_u"},
            }
        )
        with pytest.raises(SchemaError, match=r"constraints\[0\]"):
            parse_problem(text)


class TestEmitCsv:
    def test_series_four_lines(self, tmp_path):
        series = ConvergenceSeries([(10, 1.51, 0.79), (100, 4.0, 0.6), (1000, 6.2, 0.7)])
        path = tmp_path / "series.csv"
        emit_csv(series, path)
        lines = path.read_text().split("\n")
        assert lines[0] == "n,u,approx_info"
        assert len(lines) == 5 and lines[-1] == ""
        assert lines[1].startswith("10,")

    def test_curve_descending(self, tmp_path):
        f = PiecewisePossibility([(0, 1), (1, 0)])
        xs = [i / 10 for i in range(11)]
        path = tmp_path / "curve.csv"
        emit_csv(zip(xs, (float(f(x)) for x in xs)), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,v" and len(lines) == 12
        vs = [float(line.split(",")[1]) for line in lines[1:]]
        assert vs == sorted(vs, reverse=True)

    def test_empty_series_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(ConvergenceSeries([]), path)
        assert path.read_text() == "n,u,approx_info\n"


@pytest.fixture
def docs(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(p)

    return write


class TestCli:
    def test_uncertainty_of_four_ones(self, docs, capsys):
        path = docs("four.json", {"kind": "discrete", "labels": list("abcd"), "values": [1, 1, 1, 1]})
        assert run_command(["uncertainty", path]) == 0
        assert capsys.readouterr().out == "1.386294\n"

    def test_uncertainty_bits(self, docs, capsys):
        path = docs("four.json", {"kind": "discrete", "labels": list("abcd"), "values": [1, 1, 1, 1]})
        assert run_command(["uncertainty", path, "--bits"]) == 0
        assert capsys.readouterr().out == "2.000000\n"

    def test_uncertainty_with_tau(self, docs, capsys):
        path = docs("two.json", {"kind": "discrete", "labels": ["a", "b"], "values": [1, 0.5]})
        tau = docs("tau.json", {"kind": "tau", "points": [[0, 0], [0.5, 0.25], [1, 1]]})
        assert run_command(["uncertainty", path, "--tau", tau]) == 0
        out = float(capsys.readouterr().out)
        assert out == pytest.approx(0.25 * math.log(2), abs=1e-6)

    def test_info_linear(self, docs, capsys):
        path = docs("lin.json", {"kind": "piecewise_linear", "points": [[0, 1], [1, 0]]})
        assert run_command(["info", path]) == 0
        assert capsys.readouterr().out == "1.000000\n"

    def test_info_subnormal_is_math_error(self, docs, capsys):
        path = docs("sub.json", {"kind": "piecewise_linear", "points": [[0, 0.5], [1, 0.2]]})
        assert run_command(["info", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:math:") and "diverges" in err

    def test_distance_worked_pair(self, docs, capsys):
        a = docs("a.json", {"kind": "discrete", "labels": list("xyz"), "values": [1, 0.5, 0]})
        b = docs("b.json", {"kind": "discrete", "labels": list("xyz"), "values": [0.5, 1, 0.5]})
        assert run_command(["distance", a, b, "--metric", "G"]) == 0
        assert capsys.readouterr().out == "0.895880\n"

    def test_distance_continuous_h_prints_inf(self, docs, capsys):
        a = docs("a.json", {"kind": "piecewise_linear", "points": [[0, 1], [1, 0]]})
        b = docs("b.json", {"kind": "piecewise_linear", "points": [[0, 0], [1, 1]]})
        assert run_command(["distance", a, b, "--metric", "H", "--continuous"]) == 0
        assert capsys.readouterr().out == "inf\n"

    def test_distance_order_violation_is_math_error(self, docs, capsys):
        a = docs("a.json", {"kind": "discrete", "labels": ["p", "q"], "values": [1, 0.8]})
        b = docs("b.json", {"kind": "discrete", "labels": ["p", "q"], "values": [1, 0.5]})
        assert run_command(["distance", a, b, "--metric", "g"]) == 3
        assert capsys.readouterr().err.startswith("error:math:")

    def test_rearrange_writes_document(self, docs, tmp_path, capsys):
        tent = docs("tent.json", {"kind": "piecewise_linear", "points": [[0, 0], [0.5, 1], [1, 0]]})
        out = tmp_path / "out.json"
        assert run_command(["rearrange", tent, "--out", str(out)]) == 0
        f = parse_distribution(out.read_text())
        assert f.points == ((0.0, 1.0), (1.0, 0.0))

    def test_approx_csv(self, docs, tmp_path, capsys):
        lin = docs("lin.json", {"kind": "piecewise_linear", "points": [[0, 1], [1, 0]]})
        out = tmp_path / "series.csv"
        assert run_command(["approx", lin, "--n", "10,100,1000", "--csv", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,u,approx_info"
        final = float(lines[-1].split(",")[2])
        assert abs(final - 1.0) < 0.005

    def test_approx_of_subnormal_is_data_error(self, docs, tmp_path, capsys):
        sub = docs("sub.json", {"kind": "piecewise_linear", "points": [[0, 0.5], [1, 0.2]]})
        out = tmp_path / "series.csv"
        assert run_command(["approx", sub, "--n", "10,100", "--csv", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:data:")
        assert not out.exists()

    def test_infer_writes_solution(self, docs, tmp_path, capsys):
        prob = docs(
            "prob.json",
            {
                "labels": ["a", "b"],
                "constraints": [{"coefficients": [1, 0], "relation": "=", "bound": 0.4}],
                "objective": {"type": "max_u"},
            },
        )
        out = tmp_path / "sol.json"
        assert run_command(["infer", prob, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["values"] == [0.4, 1.0]
        assert payload["metadata"]["objective"] == "max_u"
        assert payload["metadata"]["objective_value"] == pytest.approx(
            0.4 * math.log(2), abs=1e-12
        )

    def test_infer_infeasible_is_math_error(self, docs, tmp_path, capsys):
        prob = docs(
            "prob.json",
            {
                "labels": ["a"],
                "constraints": [
                    {"coefficients": [1], "relation": ">=", "bound": 0.9},
                    {"coefficients": [1], "relation": "<=", "bound": 0.1},
                ],
                "objective": {"type": "max_u"},
            },
        )
        assert run_command(["infer", prob, "--out", str(tmp_path / "x.json")]) == 3
        assert capsys.readouterr().err.startswith("error:math:")

    def test_usage_error_is_exit_one(self, capsys):
        assert run_command(["uncertainty"]) == 1
        assert capsys.readouterr().err.startswith("error:usage:")
        assert run_command(["nonsense"]) == 1

    def test_schema_error_is_exit_two(self, docs, capsys):
        bad = docs("bad.json", '{"kind":"discrete","labels":["a"],"values":[2]}')
        assert run_command(["uncertainty", bad]) == 2
        assert capsys.readouterr().err.startswith("error:data:")

    def test_missing_file_is_exit_two(self, capsys, tmp_path):
        assert run_command(["uncertainty", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error:io:")

    def test_wrong_kind_is_exit_two(self, docs, capsys):
        lin = docs("lin.json", {"kind": "piecewise_linear", "points": [[0, 1], [1, 0]]})
        assert run_command(["uncertainty", lin]) == 2

    def test_byte_identical_across_runs(self, docs, capsys):
        path = docs("d.json", {"kind": "discrete", "labels": ["a", "b"], "values": [1, 0.25]})
        run_command(["uncertainty", path])
        first = capsys.readouterr().out
        run_command(["uncertainty", path])
        assert capsys.readouterr().out == first
