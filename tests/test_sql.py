"""Tests for the §4.3 SQL query front-end."""

import pytest

from repro.core.query import FlowTable
from repro.core.sql import SqlError, parse_query, run_query
from repro.flowkeys.key import FIVE_TUPLE


def _key(src, dst=0x0B000001, sport=1000, dport=80, proto=6):
    return FIVE_TUPLE.pack(src, dst, sport, dport, proto)


@pytest.fixture()
def table():
    sizes = {
        _key(0x0A000001, dport=443): 100.0,
        _key(0x0A000002, dport=443): 50.0,
        _key(0x0A000003, dport=80): 30.0,
        _key(0x0C000001, dport=80): 20.0,
    }
    return FlowTable(sizes, FIVE_TUPLE)


class TestParser:
    def test_paper_query_shape(self):
        q = parse_query(
            "SELECT SrcIP, SUM(size) FROM table GROUP BY SrcIP"
        )
        assert q.group_parts == [("SrcIP", None)]
        assert q.aggregate == "sum"

    def test_prefix_expression(self):
        q = parse_query("SELECT SrcIP/24, SUM(size) FROM t GROUP BY SrcIP/24")
        assert q.group_parts == [("SrcIP", 24)]

    def test_count_star(self):
        q = parse_query("SELECT DstIP, COUNT(*) FROM t GROUP BY DstIP")
        assert q.aggregate == "count"

    def test_group_by_mismatch_rejected(self):
        with pytest.raises(SqlError):
            parse_query("SELECT SrcIP, SUM(size) FROM t GROUP BY DstIP")

    def test_missing_aggregate_rejected(self):
        with pytest.raises(SqlError):
            parse_query("SELECT SrcIP FROM t GROUP BY SrcIP")

    def test_empty_rejected(self):
        with pytest.raises(SqlError):
            parse_query("   ")

    def test_garbage_rejected(self):
        with pytest.raises(SqlError):
            parse_query("SELECT ; DROP")


class TestExecution:
    def test_group_by_sums(self, table):
        rows = dict(
            run_query(
                "SELECT SrcIP/8, SUM(size) FROM flows GROUP BY SrcIP/8",
                table,
            )
        )
        assert rows[0x0A] == 180.0
        assert rows[0x0C] == 20.0

    def test_where_equality(self, table):
        rows = dict(
            run_query(
                "SELECT SrcIP, SUM(size) FROM flows "
                "WHERE DstPort = 443 GROUP BY SrcIP",
                table,
            )
        )
        assert rows == {0x0A000001: 100.0, 0x0A000002: 50.0}

    def test_where_prefix_predicate(self, table):
        rows = dict(
            run_query(
                "SELECT DstPort, SUM(size) FROM flows "
                "WHERE SrcIP/8 = 10 GROUP BY DstPort",
                table,
            )
        )
        assert rows == {443: 150.0, 80: 30.0}

    def test_where_and(self, table):
        rows = run_query(
            "SELECT SrcIP, SUM(size) FROM flows "
            "WHERE SrcIP/8 = 10 AND DstPort = 80 GROUP BY SrcIP",
            table,
        )
        assert rows == [(0x0A000003, 30.0)]

    def test_having_filters(self, table):
        rows = dict(
            run_query(
                "SELECT SrcIP, SUM(size) FROM flows GROUP BY SrcIP "
                "HAVING SUM(size) >= 50",
                table,
            )
        )
        assert set(rows) == {0x0A000001, 0x0A000002}

    def test_order_and_limit(self, table):
        rows = run_query(
            "SELECT SrcIP, SUM(size) FROM flows GROUP BY SrcIP "
            "ORDER BY SUM(size) DESC LIMIT 2",
            table,
        )
        assert [r[1] for r in rows] == [100.0, 50.0]

    def test_order_asc(self, table):
        rows = run_query(
            "SELECT SrcIP, SUM(size) FROM flows GROUP BY SrcIP "
            "ORDER BY SUM(size) ASC LIMIT 1",
            table,
        )
        assert rows[0][1] == 20.0

    def test_count_star_counts_flows(self, table):
        rows = dict(
            run_query("SELECT SrcIP/8, COUNT(*) FROM flows GROUP BY SrcIP/8", table)
        )
        assert rows[0x0A] == 3

    def test_multi_field_group(self, table):
        rows = dict(
            run_query(
                "SELECT SrcIP, DstPort, SUM(size) FROM flows "
                "GROUP BY SrcIP, DstPort",
                table,
            )
        )
        assert rows[(0x0A000001 << 16) | 443] == 100.0

    def test_unknown_field_raises(self, table):
        with pytest.raises(KeyError):
            run_query("SELECT Nope, SUM(size) FROM flows GROUP BY Nope", table)

    def test_end_to_end_with_sketch(self, small_trace):
        from repro.core.cocosketch import BasicCocoSketch

        sketch = BasicCocoSketch.from_memory(96 * 1024, seed=1)
        sketch.process(iter(small_trace))
        table = FlowTable.from_sketch(sketch, FIVE_TUPLE)
        rows = run_query(
            "SELECT SrcIP, SUM(size) FROM flows GROUP BY SrcIP "
            "ORDER BY SUM(size) DESC LIMIT 5",
            table,
        )
        truth = small_trace.ground_truth(FIVE_TUPLE.partial("SrcIP"))
        true_top = sorted(truth, key=truth.get, reverse=True)[:5]
        hits = sum(1 for key, _ in rows if key in set(true_top))
        assert hits >= 4


class TestLimitSlicesFullResult:
    """LIMIT k returns exactly the first k rows of the unlimited answer."""

    SIZES = [5.0, 3.0, 3.0, 3.0, 1.0, 3.0, 2.0, 5.0]

    @pytest.fixture()
    def tied(self):
        sizes = {_key(src): size for src, size in enumerate(self.SIZES, 1)}
        return FlowTable(sizes, FIVE_TUPLE)

    @pytest.mark.parametrize("source", ["table", "planner"])
    @pytest.mark.parametrize("having", ["", "HAVING SUM(size) >= 2 "])
    @pytest.mark.parametrize(
        "order", ["", "ORDER BY SUM(size) DESC ", "ORDER BY SUM(size) ASC "]
    )
    @pytest.mark.parametrize("k", [0, 1, 3, 4, 20])
    def test_limit_is_a_slice(self, tied, source, having, order, k):
        from repro.query import QueryPlanner

        text = f"SELECT SrcIP, SUM(size) FROM flows GROUP BY SrcIP {having}{order}"
        kwargs = (
            {"table": tied}
            if source == "table"
            else {"planner": QueryPlanner(tied.columns(), FIVE_TUPLE)}
        )
        full = run_query(text, **kwargs)
        assert run_query(f"{text}LIMIT {k}", **kwargs) == full[:k]

    def test_ties_straddling_the_cut_keep_key_order(self, tied):
        rows = run_query(
            "SELECT SrcIP, SUM(size) FROM flows GROUP BY SrcIP "
            "ORDER BY SUM(size) DESC LIMIT 4",
            tied,
        )
        assert rows == [(1, 5.0), (8, 5.0), (2, 3.0), (3, 3.0)]
