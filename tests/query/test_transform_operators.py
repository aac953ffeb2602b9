"""Unit tests for the transform operators (filter / norm / convert) —
the 'more operators' extension of the paper's Section 6."""

import pytest

from repro.core import OperatorError, QueryError
from repro.query import (Operator, Output, ParameterSpec, Query, Source)
from repro.xmlio import parse_query_xml
from tests.conftest import fill_simple, make_simple_experiment


def exec_elements(exp, elements, final):
    q = Query(list(elements) + [Output("sink", [final], format="csv")],
              name="t")
    return q.execute(exp, keep_temp_tables=True).vectors[final]


def src(name="s"):
    return Source(name, parameters=[ParameterSpec("S_chunk"),
                                    ParameterSpec("access")],
                  results=["bw"])


class TestFilter:
    def test_rows_kept_by_expression(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("f", "filter", ["s"],
                             expression="S_chunk >= 1024")], "f")
        assert v.n_rows == 24  # 2 of 3 chunks survive
        assert set(v.values("S_chunk")) == {1024, 1048576}

    def test_expression_over_results(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("f", "filter", ["s"],
                             expression="bw > 20")], "f")
        assert all(value > 20 for value in v.values("bw"))

    def test_columns_pass_through(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("f", "filter", ["s"],
                             expression="bw >= 0")], "f")
        assert v.column_names == ["S_chunk", "access", "bw"]
        assert v.column("bw").unit.symbol == "MB/s"

    def test_from_source_preserved_for_aggregation(self,
                                                   filled_experiment):
        # a filtered source vector must still allow data-set
        # aggregation downstream
        v = exec_elements(
            filled_experiment,
            [src(), Operator("f", "filter", ["s"],
                             expression="S_chunk < 2000"),
             Operator("m", "avg", ["f"])], "m")
        assert v.n_rows == 4  # 2 chunks x 2 accesses

    def test_empty_result_allowed(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("f", "filter", ["s"],
                             expression="bw > 1e9")], "f")
        assert v.n_rows == 0

    def test_unknown_column_rejected(self, filled_experiment):
        with pytest.raises(OperatorError, match="unknown"):
            exec_elements(
                filled_experiment,
                [src(), Operator("f", "filter", ["s"],
                                 expression="ghost > 1")], "f")

    def test_needs_expression(self):
        with pytest.raises(OperatorError, match="expression"):
            Operator("f", "filter", ["s"])


class TestNorm:
    def test_max_normalisation(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("m", "avg", ["s"]),
             Operator("n", "norm", ["m"])], "n")
        values = v.values("bw")
        assert max(values) == pytest.approx(1.0)
        assert all(0 < x <= 1.0 for x in values)

    def test_sum_normalisation(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("m", "avg", ["s"]),
             Operator("n", "norm", ["m"], mode="sum")], "n")
        assert sum(v.values("bw")) == pytest.approx(1.0)

    def test_min_normalisation(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("m", "avg", ["s"]),
             Operator("n", "norm", ["m"], mode="min")], "n")
        assert min(v.values("bw")) == pytest.approx(1.0)

    def test_first_normalisation(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("m", "avg", ["s"]),
             Operator("n", "norm", ["m"], mode="first")], "n")
        assert v.rows()[0][-1] == pytest.approx(1.0)

    def test_result_is_dimensionless(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("n", "norm", ["s"])], "n")
        assert v.column("bw").unit.symbol == ""

    def test_bad_mode_rejected(self):
        with pytest.raises(OperatorError, match="norm mode"):
            Operator("n", "norm", ["s"], mode="median")

    def test_zero_denominator_raises(self, server):
        exp = fill_simple(make_simple_experiment(server),
                          value=lambda *a: 0.0)
        with pytest.raises(QueryError,
                           match=r"'n'.*'bw'.*denominator is 0"):
            exec_elements(exp, [src(), Operator("m", "avg", ["s"]),
                                Operator("n", "norm", ["m"])], "n")


class TestConvert:
    def test_mb_to_gb(self, filled_experiment):
        base = exec_elements(filled_experiment,
                             [src(), Operator("m", "avg", ["s"])], "m")
        conv = exec_elements(
            filled_experiment,
            [src(), Operator("m", "avg", ["s"]),
             Operator("c", "convert", ["m"], unit="GB/s")], "c")
        for a, b in zip(base.values("bw"), conv.values("bw")):
            assert b == pytest.approx(a / 1000.0)
        assert conv.column("bw").unit.symbol == "GB/s"

    def test_to_bit_rate(self, filled_experiment):
        conv = exec_elements(
            filled_experiment,
            [src(), Operator("c", "convert", ["s"],
                             unit="bit/s")], "c")
        base = exec_elements(filled_experiment, [src("s2")], "s2")
        assert conv.values("bw")[0] == pytest.approx(
            base.values("bw")[0] * 8e6)

    def test_incompatible_unit_rejected(self, filled_experiment):
        with pytest.raises(OperatorError, match="compatible"):
            exec_elements(
                filled_experiment,
                [src(), Operator("c", "convert", ["s"], unit="s")],
                "c")

    def test_needs_unit(self):
        with pytest.raises(OperatorError, match="target unit"):
            Operator("c", "convert", ["s"])

    def test_axis_label_updated_in_output(self, filled_experiment):
        q = Query([
            src(),
            Operator("c", "convert", ["s"], unit="GB/s"),
            Output("t", ["c"], format="ascii"),
        ])
        content = q.execute(filled_experiment).artifact("t.txt").content
        assert "[GB/s]" in content


class TestXmlIntegration:
    def test_transforms_via_xml(self, filled_experiment):
        q = parse_query_xml("""
        <query name="transforms">
          <source id="s">
            <parameter name="S_chunk"/>
            <parameter name="access"/>
            <result name="bw"/>
          </source>
          <operator id="f" type="filter" input="s"
                    expression="S_chunk &gt;= 1024"/>
          <operator id="m" type="avg" input="f"/>
          <operator id="c" type="convert" input="m" unit="GB/s"/>
          <operator id="n" type="norm" input="c" mode="max"/>
          <output id="o" input="n" format="csv"/>
        </query>""")
        result = q.execute(filled_experiment, keep_temp_tables=True)
        v = result.vectors["n"]
        assert max(v.values("bw")) == pytest.approx(1.0)
        assert set(v.values("S_chunk")) == {1024, 1048576}
