import gzip
import io
import json

import numpy as np
import pytest

from zipnets import (
    BlockAssignment,
    DataError,
    MultiGraph,
    NumericalError,
    ParseError,
    aggregate_contacts,
    block_tallies,
    degrees,
    excess_kurtosis,
    graph_from_json,
    graph_to_json,
    parse_contact_log,
    parse_weighted_edgelist,
    prefix_series,
    read_block_assignment,
    summary_stats,
    write_block_assignment,
)
from conftest import planted_zi_graph, random_blocks


def _as_stream(text):
    return io.BytesIO(text.encode())


class TestParseContactLog:
    def test_basic(self):
        log = parse_contact_log(_as_stream("0 A B\n20 A B\n20 B C\n"))
        assert len(log.records) == 3
        assert len(log.labels()) == 3
        assert log.records[0] == (0, "A", "B")

    def test_arity_error(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_contact_log(_as_stream("x y\n"))

    def test_self_contact_rejected(self):
        with pytest.raises(ParseError, match="self-contact"):
            parse_contact_log(_as_stream("3 A A\n"))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_contact_log(_as_stream("# only a comment\n"))

    def test_comments_and_extra_fields(self):
        log = parse_contact_log(_as_stream("# header\n5 A B class1 class2\n1 B C\n"))
        assert [r[0] for r in log.records] == [1, 5]

    def test_gzip_round_trip(self):
        # oracle: compressing the byte stream must not change the records
        text = "0 A B\n20 A B\n20 B C\n40 C A\n"
        plain = parse_contact_log(_as_stream(text))
        packed = parse_contact_log(io.BytesIO(gzip.compress(text.encode())))
        assert plain.records == packed.records


    def test_caller_stream_left_open(self):
        text = b"0 A B\n20 B C\n"
        for stream in (io.BytesIO(text), io.BytesIO(gzip.compress(text))):
            assert len(parse_contact_log(stream).records) == 2
            assert not stream.closed

    def test_path_input(self, tmp_path):
        # the file opened from the path is closed again (tier-1 turns
        # ResourceWarning into an error)
        path = tmp_path / "log.txt.gz"
        path.write_bytes(gzip.compress(b"0 A B\n"))
        assert parse_contact_log(path).records == ((0, "A", "B"),)
        assert parse_contact_log(str(path)).records == ((0, "A", "B"),)


class TestAggregate:
    def test_counting(self):
        log = parse_contact_log(_as_stream("0 A B\n20 A B\n20 B C\n"))
        g = aggregate_contacts(log)
        assert g.count(0, 1) == 2 and g.count(1, 2) == 1
        assert g.n_links == 2 and g.n_multiedges == 3
        assert not g.directed and not g.loops_allowed

    def test_empty_window(self):
        log = parse_contact_log(_as_stream("0 A B\n20 A B\n"))
        with pytest.raises(DataError):
            aggregate_contacts(log, time_window=(100, 200))

    def test_window_additivity(self):
        # oracle: counts over disjoint windows must sum to the full counts
        rng = np.random.default_rng(5)
        lines = []
        for t in range(200):
            i, j = rng.integers(0, 8, size=2)
            while j == i:
                j = rng.integers(0, 8)
            lines.append(f"{t} n{i} n{j}")
        log = parse_contact_log(_as_stream("\n".join(lines) + "\n"))
        for split in (37, 100, 151):
            g_full = aggregate_contacts(log)
            g_lo = aggregate_contacts(log, (0, split))
            g_hi = aggregate_contacts(log, (split, 1000))
            assert g_lo.n_nodes == g_full.n_nodes  # node set comes from the full log
            total = {}
            for part in (g_lo, g_hi):
                for k, w in part.counts.items():
                    total[k] = total.get(k, 0) + w
            assert total == g_full.counts


class TestWeightedEdgelist:
    def test_basic(self):
        g = parse_weighted_edgelist(_as_stream("a b 5\n"), directed=False, loops=False)
        assert g.count(0, 1) == 5 and g.n_multiedges == 5 and g.n_links == 1

    def test_duplicates_merge(self):
        g = parse_weighted_edgelist(_as_stream("a b 2\na b 3\n"), directed=False, loops=False)
        assert g.count(0, 1) == 5

    def test_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_weighted_edgelist(_as_stream("a a 1\n"), directed=False, loops=False)

    def test_bad_weight(self):
        with pytest.raises(ParseError):
            parse_weighted_edgelist(_as_stream("a b 0\n"), directed=False, loops=False)
        with pytest.raises(ParseError):
            parse_weighted_edgelist(_as_stream("a b 1.5\n"), directed=False, loops=False)

    def test_loops_allowed_directed(self):
        g = parse_weighted_edgelist(_as_stream("a a 2\na b 1\n"), directed=True, loops=True)
        assert g.count(0, 0) == 2


class TestDegrees:
    def test_undirected(self):
        g = MultiGraph(["a", "b", "c"], {(0, 1): 2, (1, 2): 1}, directed=False, loops=False)
        kout, kin = degrees(g)
        assert kout.tolist() == [2, 3, 1]
        assert kin is kout or kin.tolist() == kout.tolist()

    def test_directed(self):
        g = MultiGraph(["a", "b"], {(0, 1): 4}, directed=True, loops=False)
        kout, kin = degrees(g)
        assert kout.tolist() == [4, 0] and kin.tolist() == [0, 4]

    def test_empty(self):
        g = MultiGraph(["a", "b"], {}, directed=False, loops=False)
        kout, _ = degrees(g)
        assert kout.tolist() == [0, 0]

    def test_degree_sums(self):
        gd = planted_zi_graph(1, 12, directed=True, loops=True)
        kout, kin = degrees(gd)
        assert kout.sum() == kin.sum() == gd.n_multiedges
        gu = planted_zi_graph(2, 12)
        k, _ = degrees(gu)
        assert k.sum() == 2 * gu.n_multiedges


class TestSummaryStats:
    def test_tiny(self):
        g = MultiGraph(["a", "b"], {(0, 1): 1}, directed=False, loops=False)
        s = summary_stats(g)
        assert s.n_links == 1 and s.n_multiedges == 1
        assert s.density == 1.0 and s.multiedge_density == 1.0

    def test_pair_space_sizes(self):
        assert MultiGraph(["a", "b"], {}, directed=True, loops=True).n_pairs == 4
        assert MultiGraph(["a", "b"], {}, directed=True, loops=False).n_pairs == 2
        assert MultiGraph(["a", "b", "c"], {}, directed=False, loops=False).n_pairs == 3
        with pytest.raises(DataError):
            MultiGraph(["a", "b"], {}, directed=False, loops=True)


class TestExcessKurtosis:
    def test_symmetric_two_point(self):
        assert excess_kurtosis([0, 1, 0, 1]) == pytest.approx(-2.0)

    def test_constant_errors(self):
        with pytest.raises(NumericalError):
            excess_kurtosis([3, 3, 3])

    def test_hand_moment_formula(self):
        values = [0] * 9 + [10]
        # oracle: population moments computed longhand
        mu = sum(values) / len(values)
        m2 = sum((v - mu) ** 2 for v in values) / len(values)
        m4 = sum((v - mu) ** 4 for v in values) / len(values)
        expected = m4 / m2 ** 2 - 3.0
        assert excess_kurtosis(values) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(5.111, abs=5e-3)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.poisson(3.0, size=200)
        base = excess_kurtosis(x)
        for a, c in [(2.0, 0.0), (1.0, 7.0), (-3.0, 4.0), (0.25, -1.0)]:
            assert excess_kurtosis(a * x + c) == pytest.approx(base, rel=1e-9)


class TestBlockTallies:
    def test_single_block(self):
        g = planted_zi_graph(3, 10)
        blocks = BlockAssignment(labels=(0,) * 10, n_blocks=1)
        t = block_tallies(g, blocks)
        assert t.m[0, 0] == g.n_multiedges
        assert t.links[0, 0] == g.n_links
        assert t.pairs[0, 0] == g.n_pairs

    def test_no_cross_edges(self):
        g = MultiGraph(list("abcd"), {(0, 1): 3, (2, 3): 2}, directed=False, loops=False)
        t = block_tallies(g, BlockAssignment(labels=(0, 0, 1, 1), n_blocks=2))
        assert t.m[0, 1] == 0 and t.m[1, 0] == 0
        assert t.m[0, 0] == 3 and t.m[1, 1] == 2

    @pytest.mark.parametrize("directed,loops", [(False, False), (True, False), (True, True)])
    def test_against_pair_enumeration(self, directed, loops):
        # oracle: exhaustive loop over all admissible pairs
        g = planted_zi_graph(11, 20, directed=directed, loops=loops, q=0.6, rate=3.0)
        blocks = random_blocks(7, 20, 3)
        t = block_tallies(g, blocks)
        lab = blocks.as_array()
        B = 3
        m = np.zeros((B, B), dtype=int)
        links = np.zeros((B, B), dtype=int)
        pairs = np.zeros((B, B), dtype=int)
        n = g.n_nodes
        for i in range(n):
            for j in range(n):
                if not directed and j <= i:
                    continue
                if i == j and not loops:
                    continue
                b, d = lab[i], lab[j]
                if not directed and b > d:
                    b, d = d, b
                pairs[b, d] += 1
                w = g.count(i, j)
                if w:
                    m[b, d] += w
                    links[b, d] += 1
        if not directed:
            m = m + m.T - np.diag(np.diag(m))
            links = links + links.T - np.diag(np.diag(links))
            pairs = pairs + pairs.T - np.diag(np.diag(pairs))
        assert np.array_equal(t.m, m)
        assert np.array_equal(t.links, links)
        assert np.array_equal(t.pairs, pairs)
        # marginals
        assert t.m.sum() == (g.n_multiedges if directed else
                             g.n_multiedges + np.triu(t.m, 1).sum())
        kout, kin = degrees(g)
        for b in range(B):
            assert t.kappa_out[b] == kout[lab == b].sum()
            assert t.kappa_in[b] == kin[lab == b].sum()

    def test_out_of_range_label(self):
        g = planted_zi_graph(4, 5)
        with pytest.raises(DataError):
            block_tallies(g, BlockAssignment(labels=(0, 0, 1), n_blocks=2))


class TestPrefixSeries:
    def _log(self):
        lines = ["0 a b", "10 a c", "20 a b", "30 b c", "40 a b", "50 c d"]
        return parse_contact_log(_as_stream("\n".join(lines) + "\n"))

    def test_final_point_matches_full_aggregation(self):
        log = self._log()
        series = prefix_series(log, 6)
        g = aggregate_contacts(log)
        s = summary_stats(g)
        m, M, rho, d = series[-1]
        assert (m, M) == (s.n_multiedges, s.n_links)
        assert rho == pytest.approx(s.multiedge_density)
        assert d == pytest.approx(s.density)

    def test_monotone(self):
        series = prefix_series(self._log(), 5)
        ms = [p[0] for p in series]
        Ms = [p[1] for p in series]
        assert ms == sorted(ms) and Ms == sorted(Ms)

    def test_replay_oracle(self):
        # one contact per step; M_t must equal the distinct pairs seen by t
        rng = np.random.default_rng(11)
        lines = []
        seen = set()
        expected_M = []
        for t in range(50):
            i, j = sorted(rng.choice(10, size=2, replace=False))
            lines.append(f"{t} n{i} n{j}")
            seen.add((i, j))
            expected_M.append(len(seen))
        log = parse_contact_log(_as_stream("\n".join(lines) + "\n"))
        series = prefix_series(log, 50)
        # thresholds coincide with integer timestamps here
        assert [p[1] for p in series] == expected_M
        assert [p[0] for p in series] == list(range(1, 51))

    def test_requires_two_points(self):
        with pytest.raises(DataError):
            prefix_series(self._log(), 1)


class TestIngestionInvariants:
    def test_totals_after_any_path(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            lines = []
            for t in range(rng.integers(5, 80)):
                i, j = rng.integers(0, 9, size=2)
                while j == i:
                    j = rng.integers(0, 9)
                lines.append(f"{t} n{i} n{j}")
            g = aggregate_contacts(parse_contact_log(_as_stream("\n".join(lines) + "\n")))
            assert sum(g.counts.values()) == g.n_multiedges == len(lines)
            assert len(g.counts) == g.n_links


class TestSerialization:
    def test_graph_json_round_trip(self):
        g = planted_zi_graph(9, 8, directed=True, loops=True)
        obj = graph_to_json(g)
        g2 = graph_from_json(json.loads(json.dumps(obj)))
        assert g2.counts == g.counts
        assert g2.node_ids == g.node_ids
        assert g2.space == g.space

    def test_block_file_round_trip(self, tmp_path):
        g = planted_zi_graph(10, 12)
        blocks = random_blocks(3, 12, 4)
        path = tmp_path / "blocks.txt"
        write_block_assignment(g, blocks, path)
        with open(path, "rb") as fh:
            loaded = read_block_assignment(g, fh)
        assert loaded.labels == blocks.labels

    def test_block_file_missing_node(self, tmp_path):
        g = planted_zi_graph(10, 5)
        path = tmp_path / "blocks.txt"
        path.write_text("v0 0\nv1 0\n")
        with pytest.raises(DataError, match="missing"):
            with open(path, "rb") as fh:
                read_block_assignment(g, fh)

    def test_block_assignment_validation(self):
        with pytest.raises(DataError):
            BlockAssignment(labels=(0, 2), n_blocks=3)  # block 1 empty
        with pytest.raises(DataError):
            BlockAssignment(labels=(0, -1), n_blocks=2)
