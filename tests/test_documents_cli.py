import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import point_list_by_pairs
from hypothesis import given, settings
from hypothesis import strategies as st

import possinfo
from possinfo import (
    ConvergenceSeries,
    DiscreteDistribution,
    MaxU,
    MinDistance,
    PiecewisePossibility,
    SchemaError,
    Tau,
    emit_csv,
    parse_distribution,
    parse_problem,
    parse_tau,
    serialize_distribution,
    serialize_tau,
)
from possinfo.cli import run_command
from possinfo.documents import _emit_json, _fmt_number, _point_list


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


class TestIntegerLiterals:
    """An integer literal past the float range decodes as +-inf, as 1e400 does."""

    # 400 digits, and 5000: past the float range and past int's string limit
    @pytest.fixture(params=["1" + "0" * 400, "-" + "9" * 5000])
    def huge(self, request):
        return request.param

    def test_discrete_value(self, huge):
        sign = "-" if huge[0] == "-" else ""
        with pytest.raises(SchemaError, match=rf"^value at index 1 outside \[0, 1\]: {sign}inf$"):
            parse_distribution('{"kind":"discrete","labels":["a","b"],"values":[1,%s]}' % huge)

    def test_point(self, huge):
        sign = "-" if huge[0] == "-" else ""
        with pytest.raises(SchemaError, match=rf"^value at breakpoint 1 outside \[0, 1\]: {sign}inf$"):
            parse_distribution('{"kind":"piecewise_linear","points":[[0,1],[1,%s]]}' % huge)

    @pytest.mark.parametrize("where", ["coefficients", "bound"])
    def test_constraint_coefficient_and_bound(self, huge, where):
        row = {"coefficients": "[1, 0]", "bound": "0.5"}
        row[where] = f"[1, {huge}]" if where == "coefficients" else huge
        text = ('{"labels": ["a", "b"], "objective": {"type": "max_u"}, "constraints": '
                '[{"coefficients": %s, "relation": "<=", "bound": %s}]}'
                % (row["coefficients"], row["bound"]))
        with pytest.raises(SchemaError, match=r"^constraints\[0\]: coefficients and bound must be finite$"):
            parse_problem(text)

    def test_in_range_integers_decode_as_before(self):
        d = parse_distribution('{"kind":"discrete","labels":["a","b"],"values":[1,-0]}')
        assert d.values == (1.0, 0.0) and math.copysign(1.0, d.values[1]) == 1.0
        # 2**1024 - 2**970 is the first integer that rounds past the largest float
        edge = 2**1024 - 2**970
        text = ('{"labels": ["a"], "objective": {"type": "max_u"}, "constraints": '
                '[{"coefficients": [1], "relation": "<=", "bound": %d}]}')
        assert parse_problem(text % (edge - 1)).constraints[0].bound == sys.float_info.max
        with pytest.raises(SchemaError, match="must be finite"):
            parse_problem(text % edge)


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

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (math.inf, "inf")])
    def test_non_finite_prior_gets_the_document_diagnostic(self, bad, shown):
        prior = {"kind": "discrete", "labels": ["a", "b"], "values": [1, bad]}
        text = json.dumps(
            {
                "labels": ["a", "b"],
                "constraints": [],
                "objective": {"type": "min_distance", "metric": "G", "prior": prior},
            }
        )
        message = f"value at index 1 outside [0, 1]: {shown}"
        with pytest.raises(SchemaError) as as_prior:
            parse_problem(text)
        with pytest.raises(SchemaError) as as_document:
            parse_distribution(json.dumps(prior))
        assert str(as_prior.value) == str(as_document.value) == message


@pytest.mark.parametrize("parse, text", [
    (parse_distribution, "[" * 100_000 + "]" * 100_000),
    (parse_tau, "[" * 100_000 + "]" * 100_000),
    (parse_problem, "[" * 100_000 + "]" * 100_000),
    (parse_problem, '{"labels": ["a"], "constraints": ' + "[" * 5000 + "]" * 5000 + "}"),
])
def test_deeply_nested_document_is_schema_error(parse, text):
    with pytest.raises(SchemaError, match="^invalid document: arrays and objects nest too deeply$"):
        parse(text)


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


ADVERSARIAL = [-0.0, 5e-324, 0.1, 0.0, 1.0, 0.5, 0.30000000000000004, 1 - 2**-53]


def _generic_points_document(kind, pairs, metadata=None):
    """A point document through the generic writer ``_emit_json``."""
    doc = {"kind": kind, "points": [[x, v] for x, v in pairs]}
    if metadata:
        doc["metadata"] = metadata
    return _emit_json(doc) + "\n"


def _generic_csv_rows(pairs):
    return "".join(f"{_fmt_number(x)},{_fmt_number(v)}\n" for x, v in pairs)


def _raised(fn, *args):
    """(exception type, message) of the call, or None if it returns."""
    try:
        fn(*args)
    except (TypeError, ValueError) as e:
        return type(e), str(e)
    return None


class TestPointDocuments:
    """The one-pass point writer and reader against the generic per-number paths."""

    @pytest.mark.parametrize("v", ADVERSARIAL)
    def test_piecewise_bytes_match_generic_writer(self, v):
        f = PiecewisePossibility([(-0.0, 1.0), (5e-324, v), (0.1, 1 - 2**-53), (1.0, 0.0)])
        assert serialize_distribution(f) == _generic_points_document("piecewise_linear", f.points)
        meta = {"objective": "x", "objective_value": v}
        assert serialize_distribution(f, metadata=meta) == _generic_points_document(
            "piecewise_linear", f.points, meta
        )

    def test_tau_bytes_match_generic_writer(self):
        tau = Tau([(0.0, 0.0), (5e-324, 5e-324), (0.1, 0.30000000000000004), (1.0, 1.0)])
        assert serialize_tau(tau) == _generic_points_document("tau", zip(tau.ts, tau.taus))

    @pytest.mark.parametrize(
        "pairs",
        [
            [(x, v) for x in ADVERSARIAL for v in ADVERSARIAL],
            [(1.7976931348623157e308, -1.7976931348623157e308), (-5e-324, 2.0), (1e22, 1e-7)],
            [(0, 1), (3, 10**20), (-7, 0.5), (0.25, 2)],
        ],
    )
    def test_csv_bytes_match_generic_writer(self, tmp_path, pairs):
        path = tmp_path / "curve.csv"
        emit_csv(pairs, path)
        assert path.read_bytes() == ("x,v\n" + _generic_csv_rows(pairs)).encode()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False])
    @pytest.mark.parametrize("in_x", [True, False])
    def test_csv_errors_match_generic_writer(self, tmp_path, bad, in_x):
        # the first bad number raises, although a NaN follows it
        pairs = [(0.0, 1.0), (bad, 0.5) if in_x else (0.25, bad), (0.5, math.nan)]
        path = tmp_path / "curve.csv"
        expected = _raised(_generic_csv_rows, pairs)
        assert expected is not None and _raised(emit_csv, pairs, path) == expected
        assert not path.exists()

    @pytest.mark.parametrize("item", ["true", '"0.5"', "null", "[1]", "[1, 2, 3]", "{}", "0.5",
                                      "[0.5, false]", "[[0.5], 1]"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_reader_raises_like_per_pair_reader(self, item, at):
        points = ["[0, 1]", "[0.5, 0.5]", "[1, 0]"]
        points[at] = item
        points = ", ".join(points)
        expected = None
        try:
            point_list_by_pairs(json.loads(f"[{points}]"), "'points'")
        except SchemaError as e:
            expected = str(e)
        assert expected is not None and f"'points'[{at}]" in expected
        for parse, kind in ((parse_distribution, "piecewise_linear"), (parse_tau, "tau")):
            with pytest.raises(SchemaError) as err:
                parse(f'{{"kind": "{kind}", "points": [{points}]}}')
            assert str(err.value) == expected

    def test_reader_values_match_per_pair_reader(self):
        raw = [[0, 1], [-0.0, 5e-324], [0.1, 1], [10**20, 0.30000000000000004], [1, 0.0]]
        got, expected = _point_list(raw, "p"), point_list_by_pairs(raw, "p")
        assert [tuple(map(float.hex, p)) for p in got] == [tuple(map(float.hex, p)) for p in expected]


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

    @pytest.mark.parametrize("point", [[math.nan, 0.5], [0.5, math.nan]])
    def test_nan_tau_breakpoint_is_data_error(self, docs, capsys, point):
        path = docs("two.json", {"kind": "discrete", "labels": ["a", "b"], "values": [1, 0.5]})
        tau = docs("tau.json", {"kind": "tau", "points": [[0, 0], point, [1, 1]]})
        assert run_command(["uncertainty", path, "--tau", tau]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:data:")

    def test_info_linear(self, docs, capsys):
        path = docs("lin.json", {"kind": "piecewise_linear", "points": [[0, 1], [1, 0]]})
        assert run_command(["info", path]) == 0
        assert capsys.readouterr().out == "1.000000\n"

    def test_info_of_steep_segments_whose_rates_sum_past_the_float_range(self, docs, capsys):
        points = [[0, 0], [0.1, 1e-309], [0.2, 0], [0.3, 1e-309], [0.4, 0], [1, 1]]
        path = docs("steep.json", {"kind": "piecewise_linear", "points": points})
        assert run_command(["info", path]) == 0
        assert capsys.readouterr().out == "1.510826\n"  # 1 + ln(1 / 0.6)

    def test_info_of_a_spike_narrower_than_the_subnormal_range(self, docs, capsys):
        points = [[0, 0.6774208733279948], [1.082e-320, 1], [1.0819523446068e-310, 0.5086568400312831],
                  [1, 0.9999999999999999]]
        path = docs("spike.json", {"kind": "piecewise_linear", "points": points})
        assert run_command(["info", path]) == 0
        assert capsys.readouterr() == ("0.491343\n", "")  # 0.49134315996880015 at 60 digits

    def test_info_of_a_subnormal_width_top_plateau(self, docs, capsys):
        path = docs("plateau.json", {"kind": "piecewise_linear", "points": [[0, 1], [1e-310, 1], [1, 0]]})
        assert run_command(["info", path]) == 0
        assert capsys.readouterr() == ("1.000000\n", "")

    @pytest.mark.parametrize("metric, printed", [("G", "714.801379"), ("K", "714.801379"), ("H", "inf")])
    def test_continuous_distance_across_a_narrow_segment(self, docs, capsys, metric, printed):
        # the curves cross halfway through [0, 1e-310], narrower than 1 / max float
        fall = docs("fall.json", {"kind": "piecewise_linear", "points": [[0, 1], [1e-310, 0], [1, 0]]})
        rise = docs("rise.json", {"kind": "piecewise_linear", "points": [[0, 0], [1e-310, 1], [1, 1]]})
        assert run_command(["distance", fall, rise, "--metric", metric, "--continuous"]) == 0
        assert capsys.readouterr() == (printed + "\n", "")

    def test_uncertainty_with_a_tau_rising_across_a_narrow_segment(self, docs, capsys):
        path = docs("two.json", {"kind": "discrete", "labels": ["a", "b"], "values": [1.0, 5e-311]})
        tau = docs("tau.json", {"kind": "tau", "points": [[0, 0], [1e-310, 1], [1, 1]]})
        assert run_command(["uncertainty", path, "--tau", tau]) == 0
        assert capsys.readouterr() == ("0.346574\n", "")  # ln 2 / 2

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

    def test_approx_non_integer_count_is_usage_error(self, docs, tmp_path, capsys):
        lin = docs("lin.json", {"kind": "piecewise_linear", "points": [[0, 1], [1, 0]]})
        out = tmp_path / "series.csv"
        assert run_command(["approx", lin, "--n", "10,x", "--csv", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:usage: --n must be a comma-separated")
        assert not out.exists()

    def test_approx_of_subnormal_is_data_error(self, docs, tmp_path, capsys):
        sub = docs("sub.json", {"kind": "piecewise_linear", "points": [[0, 0.5], [1, 0.2]]})
        out = tmp_path / "series.csv"
        assert run_command(["approx", sub, "--n", "10,100", "--csv", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:data:")
        assert not out.exists()

    def test_approx_of_zero_samples_is_data_error(self, docs, tmp_path, capsys):
        lin = docs("lin.json", {"kind": "piecewise_linear", "points": [[0, 1], [1, 0]]})
        out = tmp_path / "series.csv"
        assert run_command(["approx", lin, "--n", "0,10", "--csv", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:data:")
        assert not out.exists()

    def test_approx_too_large_to_hold_is_data_error(self, docs, tmp_path, capsys):
        # 10**16 float samples are 71 PiB, past any x86-64 address space
        lin = docs("lin.json", {"kind": "piecewise_linear", "points": [[0, 1], [1, 0]]})
        out = tmp_path / "series.csv"
        assert run_command(["approx", lin, "--n", "10000000000000000", "--csv", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:data: ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_approx_count_past_the_float_range_is_data_error(self, docs, tmp_path, capsys):
        lin = docs("lin.json", {"kind": "piecewise_linear", "points": [[0, 1], [1, 0]]})
        out = tmp_path / "series.csv"
        assert run_command(["approx", lin, "--n", "1" + "0" * 400, "--csv", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:data: ") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["uncertainty", "uncertainty --tau", "info", "infer"])
    def test_deeply_nested_document_is_data_error(self, docs, tmp_path, capsys, command):
        deep = docs("deep.json", "[" * 100_000 + "]" * 100_000)
        two = docs("two.json", {"kind": "discrete", "labels": ["a", "b"], "values": [1, 0.5]})
        out = tmp_path / "out.json"
        argv = {
            "uncertainty": ["uncertainty", deep],
            "uncertainty --tau": ["uncertainty", two, "--tau", deep],
            "info": ["info", deep],
            "infer": ["infer", deep, "--out", str(out)],
        }[command]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:data: invalid document: arrays and objects nest too deeply\n"
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

    def test_infer_min_distance_writes_solution(self, docs, tmp_path):
        prior = {"kind": "discrete", "labels": ["a", "b"], "values": [1, 0.5]}
        prob = docs(
            "prob.json",
            {
                "labels": ["a", "b"],
                "constraints": [{"coefficients": [1, 0], "relation": "<=", "bound": 0.4}],
                "objective": {"type": "min_distance", "metric": "G", "prior": prior},
            },
        )
        out = tmp_path / "sol.json"
        assert run_command(["infer", prob, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        # normalized with a <= 0.4, so b = 1; G = (2 - a - 0.5) ln 2 is least at a = 0.4
        assert payload["values"] == [0.4, 1.0]
        assert payload["metadata"]["objective"] == "min_distance"
        assert payload["metadata"]["objective_value"] == pytest.approx(
            1.1 * math.log(2), abs=1e-12
        )

    def test_infer_exactly_feasible_optimum_at_1e300_scale(self, docs, tmp_path):
        prob = docs(
            "prob.json",
            {
                "labels": ["a", "b"],
                "constraints": [{"coefficients": [2e300, 1e300], "relation": "=",
                                 "bound": 2e300 + 1e300 * 1 / 10}],
                "objective": {"type": "max_u"},
            },
        )
        out = tmp_path / "sol.json"
        assert run_command(["infer", prob, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["values"] == [0.55, 1.0]

    def test_infer_infeasible_is_math_error(self, docs, tmp_path, capsys):
        # the second problem's least total violation lies beyond the float range
        for labels, rows in ((["a"], [([1], ">=", 0.9), ([1], "<=", 0.1)]),
                             (["a", "b"], [([1, 0], ">=", 1.5e308), ([0, 1], ">=", 1.6e308)])):
            prob = docs(
                "prob.json",
                {
                    "labels": labels,
                    "constraints": [{"coefficients": c, "relation": rel, "bound": b}
                                    for c, rel, b in rows],
                    "objective": {"type": "max_u"},
                },
            )
            assert run_command(["infer", prob, "--out", str(tmp_path / "x.json")]) == 3
            assert capsys.readouterr().err.startswith("error:math:")

    @pytest.mark.parametrize("coefficients, bound", [([1, 0], math.inf), ([math.nan, 1], 0.5)])
    def test_infer_non_finite_constraint_is_data_error(self, docs, tmp_path, capsys,
                                                        coefficients, bound):
        prob = docs(
            "prob.json",
            {
                "labels": ["a", "b"],
                "constraints": [{"coefficients": coefficients, "relation": "<=", "bound": bound}],
                "objective": {"type": "max_u"},
            },
        )
        out = tmp_path / "sol.json"
        assert run_command(["infer", prob, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:data: constraints[0]: coefficients and bound must be finite")
        assert not out.exists()

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
        two = docs("two.json", {"kind": "discrete", "labels": ["a", "b"], "values": [1, 0.5]})
        assert run_command(["uncertainty", lin]) == 2
        assert capsys.readouterr().err == f"error:data: {lin}: expected a discrete distribution document\n"
        assert run_command(["info", two]) == 2
        assert capsys.readouterr().err == (
            f"error:data: {two}: expected a piecewise_linear distribution document\n"
        )

    def test_integer_past_the_float_range_is_a_data_error(self, docs, tmp_path, capsys):
        path = docs("big.json", '{"kind": "discrete", "labels": ["a", "b"], "values": [1, 1%s]}'
                    % ("0" * 400))
        assert run_command(["uncertainty", path]) == 2
        line = "error:data: value at index 1 outside [0, 1]: inf\n"
        assert capsys.readouterr() == ("", line)
        assert _fresh(["uncertainty", path], tmp_path) == (2, b"", line.encode())

    def test_byte_identical_across_runs(self, docs, capsys):
        path = docs("d.json", {"kind": "discrete", "labels": ["a", "b"], "values": [1, 0.25]})
        run_command(["uncertainty", path])
        first = capsys.readouterr().out
        run_command(["uncertainty", path])
        assert capsys.readouterr().out == first


def _fresh(argv, cwd):
    """(exit code, stdout, stderr) bytes of one command in a new interpreter, warnings as errors."""
    src = str(Path(possinfo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "possinfo.cli", *argv],
                          capture_output=True, cwd=cwd, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _here(argv, capsys):
    """(exit code, stdout, stderr) bytes of one ``run_command`` call in this process."""
    code = run_command(argv)
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


class TestParserReuse:
    """``run_command`` reuses one parser: a command's output never depends on the one before."""

    @pytest.fixture
    def files(self, docs):
        return {
            "four": docs("four.json", {"kind": "discrete", "labels": list("abcd"), "values": [1, 1, 1, 1]}),
            "d1": docs("d1.json", {"kind": "discrete", "labels": list("xyz"), "values": [1, 0.5, 0]}),
            "d2": docs("d2.json", {"kind": "discrete", "labels": list("xyz"), "values": [1, 1, 0.5]}),
            "c1": docs("c1.json", {"kind": "piecewise_linear", "points": [[0, 1], [1, 0]]}),
            "c2": docs("c2.json", {"kind": "piecewise_linear", "points": [[0, 1], [0.5, 1], [1, 0]]}),
        }

    @pytest.mark.parametrize(
        "first, second",
        [
            (["uncertainty", "four", "--bits"], ["uncertainty", "four"]),
            (["uncertainty"], ["uncertainty", "four"]),
            (["--help"], ["uncertainty", "four"]),
            (["distance", "c1", "c2", "--metric", "G", "--continuous"],
             ["distance", "d1", "d2", "--metric", "G"]),
        ],
        ids=["bits-then-nats", "usage-then-valid", "help-then-valid", "continuous-then-discrete"],
    )
    def test_second_command_matches_a_fresh_interpreter(self, files, tmp_path, capsys,
                                                        monkeypatch, first, second):
        monkeypatch.setenv("COLUMNS", "80")
        first, second = ([files.get(a, a) for a in argv] for argv in (first, second))
        here = [_here(first, capsys), _here(second, capsys)]
        assert here == [_fresh(first, tmp_path), _fresh(second, tmp_path)]
        assert here[1][0] == 0
        if first[0] == "--help":
            assert here[0][0] == 0 and here[0][1].startswith(b"usage: possinfo")
        if second[0] == "uncertainty":
            assert here[1][1] == b"1.386294\n"


class TestSubprocessSmoke:
    """``python -m possinfo.cli`` gives the bytes and exit codes of in-process ``run_command``."""

    def test_commands_match_in_process(self, docs, tmp_path, capsys):
        lin = docs("lin.json", {"kind": "piecewise_linear", "points": [[0, 1], [0.3, 0.7], [1, 0]]})
        tent = docs("tent.json", {"kind": "piecewise_linear", "points": [[0, 0], [0.5, 1], [1, 0.25]]})
        bad = docs("bad.json", {"kind": "discrete", "labels": ["a", "b"], "values": [1, 1.5]})
        sub = docs("sub.json", {"kind": "piecewise_linear", "points": [[0, 0.5], [1, 0.2]]})
        cases = [  # argv with "OUT" for the written file, exit code, stderr line class
            (["info", lin], 0, None, None),
            (["rearrange", tent, "--out", "OUT"], 0, None, "r.json"),
            (["approx", lin, "--n", "10,100,1000", "--csv", "OUT"], 0, None, "a.csv"),
            (["uncertainty", bad], 2, b"error:data: ", None),
            (["info", sub], 3, b"error:math: ", None),
        ]
        for argv, code, category, out_name in cases:
            outs = [tmp_path / f"{side}-{out_name}" for side in ("here", "fresh")] if out_name else []
            here = _here([str(outs[0]) if a == "OUT" else a for a in argv], capsys)
            fresh = _fresh([str(outs[1]) if a == "OUT" else a for a in argv], tmp_path)
            assert here == fresh and here[0] == code
            if category:
                assert here[1] == b"" and here[2].startswith(category) and here[2].count(b"\n") == 1
            else:
                assert here[2] == b""
            if out_name:
                assert outs[0].read_bytes() == outs[1].read_bytes() != b""
