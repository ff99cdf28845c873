"""Multi-edge graph container, ingestion of contact logs and edge lists,
and the descriptive statistics used throughout the package.

A multigraph stores integer interaction counts A_ij over a *pair space*:
the set of admissible node pairs given directedness and the self-loop
policy. Three pair spaces are supported:

- directed with loops:      P = N^2
- directed without loops:   P = N(N-1)
- undirected without loops: P = N(N-1)/2

Counts are stored sparsely on canonical pairs (i <= j for undirected
graphs); pairs without an entry have count zero.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

from .exceptions import DataError, NumericalError, ParseError

__all__ = [
    "PairSpace",
    "MultiGraph",
    "TemporalContactLog",
    "GraphSummary",
    "BlockAssignment",
    "BlockTallies",
    "parse_contact_log",
    "aggregate_contacts",
    "parse_weighted_edgelist",
    "degrees",
    "summary_stats",
    "excess_kurtosis",
    "block_tallies",
    "prefix_series",
    "graph_to_json",
    "graph_from_json",
    "save_graph",
    "load_graph",
    "read_block_assignment",
    "write_block_assignment",
]


@dataclass(frozen=True)
class PairSpace:
    """Admissible node pairs for a graph: (n_nodes, directed, loops)."""

    n: int
    directed: bool
    loops: bool

    def __post_init__(self):
        if self.n < 1:
            raise DataError("graph needs at least one node")
        if self.loops and not self.directed:
            raise DataError("undirected graphs with self-loops are not supported")

    @property
    def size(self) -> int:
        """Number of admissible pairs P."""
        n = self.n
        if self.directed:
            return n * n if self.loops else n * (n - 1)
        return n * (n - 1) // 2

    def admissible(self, i: int, j: int) -> bool:
        return 0 <= i < self.n and 0 <= j < self.n and (self.loops or i != j)

    def canonical(self, i: int, j: int) -> tuple:
        """Canonical key for the pair (i <= j when undirected)."""
        if not self.admissible(i, j):
            raise DataError(f"pair ({i}, {j}) is not admissible in this pair space")
        return (j, i) if not self.directed and i > j else (i, j)

    def pair_indices(self) -> tuple:
        """Row/column index arrays enumerating all pairs in canonical order.

        The order is fixed (row-major over the upper triangle for
        undirected graphs) so that vectorized per-pair computations are
        reproducible.
        """
        n = self.n
        if self.directed:
            ii, jj = np.divmod(np.arange(n * n), n)
            if not self.loops:
                keep = ii != jj
                ii, jj = ii[keep], jj[keep]
        else:
            ii, jj = np.triu_indices(n, k=1)
        return ii, jj


class MultiGraph:
    """Immutable integer-count multigraph over a fixed pair space.

    The graph is stored once, as read-only arrays over its connected
    pairs: canonical rows and cols (i <= j when undirected), their
    sorted positions in the pair enumeration, and positive int64 counts.
    Every other view derives from these; ``counts`` builds a read-only
    {(i, j): w} mapping on each access.

    Parameters
    ----------
    node_ids:
        External string labels, one per node. Position defines the
        dense index used everywhere else.
    counts:
        A mapping from (i, j) index pairs to integer counts, or a
        (rows, cols, counts) triple of integer arrays. Zero counts are
        dropped, undirected pairs are canonicalized and entries that
        map to the same canonical pair are summed. A negative count, or
        a nonzero count on an inadmissible pair, raises DataError for
        the first such entry.
    directed, loops:
        Pair-space policy flags.
    """

    def __init__(self, node_ids: Sequence[str], counts, directed: bool, loops: bool):
        ids = [str(x) for x in node_ids]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate node labels")
        self.node_ids = tuple(ids)
        self.space = PairSpace(len(ids), directed, loops)
        if isinstance(counts, Mapping):
            keys = np.array(list(counts)).reshape(-1, 2)
            counts = (keys[:, 0], keys[:, 1], list(counts.values()))
        self._rows, self._cols, self._pos, self._w = _canonical_edges(self.space, *counts)
        self._derived = {}  # views other modules build once and keep; they cannot go stale

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.space.n

    @property
    def directed(self) -> bool:
        return self.space.directed

    @property
    def loops_allowed(self) -> bool:
        return self.space.loops

    @property
    def n_pairs(self) -> int:
        """Pair-space size P."""
        return self.space.size

    @property
    def n_multiedges(self) -> int:
        """Total number of interactions m."""
        return int(self._w.sum())

    @property
    def n_links(self) -> int:
        """Number of connected pairs M."""
        return int(self._w.size)

    @property
    def counts(self) -> Mapping:
        """Read-only {(i, j): w} mapping of the connected pairs, in canonical order."""
        keys = zip(self._rows.tolist(), self._cols.tolist())
        return MappingProxyType(dict(zip(keys, self._w.tolist())))

    def count(self, i: int, j: int) -> int:
        pos = _pair_positions(self.space, *self.space.canonical(i, j))
        at = int(np.searchsorted(self._pos, pos))
        return int(self._w[at]) if at < self._pos.size and self._pos[at] == pos else 0

    def edge_arrays(self) -> tuple:
        """Read-only (rows, cols, counts) of the connected pairs, in canonical pair order."""
        return self._rows, self._cols, self._w

    def count_vector(self) -> np.ndarray:
        """Counts over the full pair space in canonical enumeration order."""
        vec = np.zeros(self.space.size, dtype=np.int64)
        vec[self._pos] = self._w
        return vec

    def dense_matrix(self) -> np.ndarray:
        """Dense count matrix; symmetric for undirected graphs."""
        n = self.n_nodes
        mat = np.zeros((n, n), dtype=np.int64)
        mat[self._rows, self._cols] = self._w
        if not self.directed:
            mat[self._cols, self._rows] = self._w
        return mat

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return (f"MultiGraph(n={self.n_nodes}, {kind}, loops={self.loops_allowed}, "
                f"M={self.n_links}, m={self.n_multiedges})")


def _canonical_edges(space: PairSpace, rows, cols, counts) -> tuple:
    """Read-only (rows, cols, positions, counts) of the nonzero entries:
    canonical, sorted by pair position, with duplicate pairs summed."""
    rows, cols, w = (np.asarray(x) for x in (rows, cols, counts))
    if (rows.ndim != 1 or not rows.shape == cols.shape == w.shape
            or any(a.size and a.dtype.kind not in "iu" for a in (rows, cols, w))):
        raise DataError("rows, cols and counts must be integer 1-d arrays of one length")
    rows, cols, w = (a.astype(np.int64) for a in (rows, cols, w))
    inside = ((np.minimum(rows, cols) >= 0) & (np.maximum(rows, cols) < space.n)
              & (space.loops | (rows != cols)))
    bad = (w < 0) | ((w != 0) & ~inside)
    if bad.any():
        k = int(np.argmax(bad))
        pair = f"pair ({rows[k]}, {cols[k]})"
        raise DataError(f"negative count for {pair}" if w[k] < 0
                        else f"{pair} is not admissible in this pair space")
    keep = w != 0
    rows, cols, w = rows[keep], cols[keep], w[keep]
    if not space.directed:
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
    pos = _pair_positions(space, rows, cols)
    order = np.argsort(pos)  # entries that tie are one canonical pair
    pos = pos[order]
    first = np.flatnonzero(np.diff(pos, prepend=-1))
    pick = order[first]
    out = rows[pick], cols[pick], pos[first], np.add.reduceat(w[order], first)
    for a in out:
        a.flags.writeable = False
    return out


def _pair_positions(space: PairSpace, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Positions of canonical pairs within the canonical enumeration."""
    n = space.n
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    if space.directed:
        if space.loops:
            return ii * n + jj
        # row-major over off-diagonal entries
        return ii * (n - 1) + jj - (jj > ii)
    # upper triangle, row-major: offset(i) = i*n - i*(i+1)/2 - i ... derived
    # from sum of row lengths (n-1-k) for k < i
    off = ii * n - ii * (ii + 1) // 2
    return off + (jj - ii - 1)


# -- temporal contact logs --------------------------------------------------


@dataclass(frozen=True)
class TemporalContactLog:
    """Time-stamped pairwise contacts, sorted by timestamp."""

    records: tuple  # of (t, label_i, label_j)

    def __post_init__(self):
        if not self.records:
            raise DataError("contact log is empty")

    @property
    def t_min(self) -> int:
        return self.records[0][0]

    @property
    def t_max(self) -> int:
        return self.records[-1][0]

    def labels(self) -> list:
        """Distinct node labels in order of first appearance."""
        seen: dict = {}
        for _, a, b in self.records:
            seen.setdefault(a, None)
            seen.setdefault(b, None)
        return list(seen)


@contextlib.contextmanager
def _open_maybe_gzip(stream) -> Iterator[TextIO]:
    """Text view of a path or a binary/text stream, transparently decoding gzip.

    A file opened from a path is closed on exit; a caller's stream stays
    open, as the wrappers around it are detached rather than closed.
    """
    if isinstance(stream, io.TextIOBase):
        yield stream
        return
    with contextlib.ExitStack() as stack:  # unwinds in reverse order of wrapping
        if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
            stream = stack.enter_context(open(stream, "rb"))
        if not hasattr(stream, "peek"):
            stream = io.BufferedReader(stream)
            stack.callback(stream.detach)
        if stream.peek(2)[:2] == b"\x1f\x8b":
            # closing a GzipFile leaves the fileobj it was given open
            stream = stack.enter_context(gzip.GzipFile(fileobj=stream))
        text = io.TextIOWrapper(stream, encoding="utf-8")
        stack.callback(text.detach)
        yield text


def _lines(stream) -> Iterator[tuple]:
    """(line number from 1, text) of each line of a path or stream that
    holds more than a "#" comment, with the comment and the surrounding
    whitespace stripped."""
    with _open_maybe_gzip(stream) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if text:
                yield lineno, text


def parse_contact_log(stream) -> TemporalContactLog:
    """Parse a contact log with lines "t i j" (whitespace or tab separated).

    Extra fields are ignored, "#" starts a comment, and gzip input is
    detected from the magic bytes. Records are returned sorted by
    timestamp with the original label strings preserved.
    """
    records = []
    for lineno, text in _lines(stream):
        parts = text.replace(",", " ").split()
        if len(parts) < 3:
            raise ParseError(f"expected at least 3 fields, got {len(parts)}", line=lineno)
        try:
            t = int(parts[0])
        except ValueError:
            raise ParseError(f"timestamp {parts[0]!r} is not an integer", line=lineno) from None
        a, b = parts[1], parts[2]
        if a == b:
            raise ParseError(f"self-contact {a!r}", line=lineno)
        records.append((t, a, b))
    if not records:
        raise ParseError("no records found")
    records.sort(key=lambda r: r[0])
    return TemporalContactLog(tuple(records))


def aggregate_contacts(log: TemporalContactLog, time_window: Optional[tuple] = None) -> MultiGraph:
    """Aggregate a contact log into an undirected, loop-free multigraph.

    A_ij counts the records between i and j inside ``time_window``
    (half-open, [t0, t1)). The node set always covers every label in
    the full log so that graphs built from different windows share N.
    """
    labels, rows, cols = _record_pairs(log)
    if time_window is not None:
        t0, t1 = time_window
        t = _timestamps(log)
        inside = (t0 <= t) & (t < t1)
        if not inside.any():
            raise DataError(f"time window [{t0}, {t1}) contains no records")
        rows, cols = rows[inside], cols[inside]
    return MultiGraph(labels, (rows, cols, np.ones(rows.size, dtype=np.int64)),
                      directed=False, loops=False)


def _record_pairs(log: TemporalContactLog) -> tuple:
    """(labels, rows, cols): node labels in order of first appearance and
    the two node indices of each record."""
    labels = log.labels()
    index = {lab: k for k, lab in enumerate(labels)}
    rows, cols = (np.fromiter(map(index.__getitem__, map(itemgetter(k), log.records)),
                              dtype=np.int64, count=len(log.records)) for k in (1, 2))
    return labels, rows, cols


def _timestamps(log: TemporalContactLog) -> np.ndarray:
    # int64, or an object array when a timestamp does not fit in 64 bits
    return np.array(list(map(itemgetter(0), log.records)))


def parse_weighted_edgelist(stream, directed: bool, loops: bool) -> MultiGraph:
    """Parse lines "i j w" with positive integer weights into a MultiGraph.

    Duplicate pairs accumulate. Node labels are mapped to dense indices
    in order of first appearance.
    """
    index: dict = {}
    rows, cols, weights = [], [], []
    for lineno, text in _lines(stream):
        parts = text.replace(",", " ").split()
        if len(parts) < 3:
            raise ParseError(f"expected 3 fields 'i j w', got {len(parts)}", line=lineno)
        a, b, w_text = parts[0], parts[1], parts[2]
        try:
            w = int(w_text)
        except ValueError:
            raise ParseError(f"weight {w_text!r} is not an integer", line=lineno) from None
        if w <= 0:
            raise ParseError(f"weight must be positive, got {w}", line=lineno)
        if a == b and not loops:
            raise ParseError(f"self-loop {a!r} not allowed", line=lineno)
        rows.append(index.setdefault(a, len(index)))
        cols.append(index.setdefault(b, len(index)))
        weights.append(w)
    if not weights:
        raise ParseError("no edges found")
    return MultiGraph(list(index), (rows, cols, weights), directed=directed, loops=loops)


# -- statistics --------------------------------------------------------------


def degrees(g: MultiGraph) -> tuple:
    """Out- and in-degree vectors (k_out, k_in); identical arrays for
    undirected graphs, where every edge contributes to both endpoints."""
    rows, cols, w = g.edge_arrays()
    kout = _index_sums(rows, w, g.n_nodes)
    kin = _index_sums(cols, w, g.n_nodes)
    if not g.directed:
        kout = kin = kout + kin
    return kout, kin


def _index_sums(index: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Integer sums of ``w`` per index value in [0, n); exact below 2**53."""
    return np.bincount(index, weights=w, minlength=n).astype(np.int64)


def excess_kurtosis(values) -> float:
    """Excess kurtosis m4/m2^2 - 3 with population central moments."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise DataError("need at least two values for kurtosis")
    mu = x.mean()
    d = x - mu
    m2 = np.mean(d * d)
    if m2 <= 0.0:
        raise NumericalError("kurtosis undefined: zero variance")
    m4 = np.mean(d ** 4)
    return float(m4 / (m2 * m2) - 3.0)


def _graph_kurtosis(g: MultiGraph) -> float:
    """``excess_kurtosis(g.count_vector())`` in O(M): exact power sums S_k of the
    nonzero counts, zeros in closed form, one rounded division X/Y^2 - 3."""
    P = g.n_pairs
    if P < 2:
        raise DataError("need at least two values for kurtosis")
    c = g._w
    if c.size and int(c.max()) ** 4 * c.size >= 2 ** 63:
        c = c.astype(object)  # Python ints: the power sums would overflow int64
    s1, s2, s3, s4 = (int((c ** k).sum()) for k in (1, 2, 3, 4))
    y = P * s2 - s1 * s1
    if y <= 0:
        raise NumericalError("kurtosis undefined: zero variance")
    x = P ** 3 * s4 - 4 * P ** 2 * s1 * s3 + 6 * P * s1 * s1 * s2 - 3 * s1 ** 4
    return x / (y * y) - 3.0


@dataclass(frozen=True)
class GraphSummary:
    """Headline statistics of a multigraph."""

    n_nodes: int
    n_links: int
    n_multiedges: int
    density: float
    multiedge_density: float
    excess_kurtosis: float


def summary_stats(g: MultiGraph) -> GraphSummary:
    """N, M, m, d = M/P, rho = m/P and the excess kurtosis of the edge
    count distribution over all P pairs (zeros included)."""
    P, M, m = g.n_pairs, g.n_links, g.n_multiedges
    try:
        kurt = _graph_kurtosis(g)
    except (DataError, NumericalError):  # one pair, or all counts equal
        kurt = float("nan")
    return GraphSummary(n_nodes=g.n_nodes, n_links=M, n_multiedges=m, density=M / P,
                        multiedge_density=m / P, excess_kurtosis=kurt)


# -- block structure ---------------------------------------------------------


@dataclass(frozen=True)
class BlockAssignment:
    """Dense node-to-block labels b_i in [0, B)."""

    labels: tuple
    n_blocks: int = field(default=0)

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        B = self.n_blocks or (max(labels) + 1 if labels else 0)
        object.__setattr__(self, "n_blocks", B)
        if not labels:
            raise DataError("empty block assignment")
        present = set(labels)
        if min(present) < 0 or max(present) >= B:
            raise DataError("block label out of range")
        if present != set(range(B)):
            raise DataError("every block in [0, B) must be non-empty")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=np.int64)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.as_array(), minlength=self.n_blocks)


def single_block(n: int) -> BlockAssignment:
    return BlockAssignment(labels=(0,) * n, n_blocks=1)


@dataclass(frozen=True)
class BlockTallies:
    """Per-block-pair counts used by block-model estimators.

    For undirected graphs the matrices are symmetric and the diagonal
    holds unordered within-block quantities (each edge and each pair
    counted once); block degrees kappa then count edge endpoints, so
    kappa_b = 2 m_bb + sum_{d != b} m_bd.
    """

    m: np.ndarray        # multi-edges per block pair
    links: np.ndarray    # connected pairs per block pair
    pairs: np.ndarray    # admissible pairs per block pair
    n_per_block: np.ndarray
    kappa_out: np.ndarray
    kappa_in: np.ndarray


def block_tallies(g: MultiGraph, blocks: BlockAssignment) -> BlockTallies:
    """Tally multi-edges, links and admissible pairs by block pair."""
    if len(blocks.labels) != g.n_nodes:
        raise DataError("block assignment length does not match the graph")
    B = blocks.n_blocks
    lab = blocks.as_array()
    sizes = blocks.sizes()
    rows, cols, w = g.edge_arrays()
    b, d = lab[rows], lab[cols]
    if not g.directed:
        b, d = np.minimum(b, d), np.maximum(b, d)
    m = _index_sums(b * B + d, w, B * B).reshape(B, B)
    links = np.bincount(b * B + d, minlength=B * B).astype(np.int64).reshape(B, B)
    pairs = np.outer(sizes, sizes)
    if g.directed:
        if not g.loops_allowed:
            pairs[np.diag_indices(B)] -= sizes
        kappa_out, kappa_in = m.sum(axis=1), m.sum(axis=0)
    else:
        pairs[np.diag_indices(B)] = sizes * (sizes - 1) // 2
        # mirror the tallies of the upper triangle
        m = m + m.T - np.diag(np.diag(m))
        links = links + links.T - np.diag(np.diag(links))
        kappa_out = kappa_in = m.sum(axis=1) + np.diag(m)
    return BlockTallies(m=m, links=links, pairs=pairs, n_per_block=sizes,
                        kappa_out=kappa_out, kappa_in=kappa_in)


# -- prefix series -----------------------------------------------------------


def prefix_series(log: TemporalContactLog, n_points: int) -> list:
    """Statistics (m, M, rho, d) of growing time prefixes.

    Prefixes end at ``n_points`` equally spaced thresholds between the
    first and last timestamp (inclusive), so the final entry matches the
    aggregation of the full log. m counts the records up to a threshold
    and M the pairs first seen among them.
    """
    if n_points < 2:
        raise DataError("need at least two prefix points")
    labels, rows, cols = _record_pairs(log)
    P = len(labels) * (len(labels) - 1) // 2
    t0, t1 = log.t_min, log.t_max
    thresholds = [t0 + (t1 - t0) * k / (n_points - 1) for k in range(n_points)]
    # a prefix's links are the pairs whose first record falls inside it
    key = np.minimum(rows, cols) * len(labels) + np.maximum(rows, cols)
    first_seen = np.sort(np.unique(key, return_index=True)[1])
    m_all = np.searchsorted(_timestamps(log), thresholds, side="right")
    M_all = np.searchsorted(first_seen, m_all)
    return [(m, M, m / P if P else float("nan"), M / P if P else float("nan"))
            for m, M in zip(m_all.tolist(), M_all.tolist())]


# -- serialization -----------------------------------------------------------


def graph_to_json(g: MultiGraph) -> dict:
    """JSON-serializable description of a graph."""
    edges = np.column_stack(g.edge_arrays()).tolist()
    return {
        "n_nodes": g.n_nodes,
        "directed": g.directed,
        "loops": g.loops_allowed,
        "node_ids": list(g.node_ids),
        "edges": edges,
    }


def graph_from_json(obj: dict) -> MultiGraph:
    try:
        node_ids, directed, loops = obj["node_ids"], bool(obj["directed"]), bool(obj["loops"])
        edges = np.array(obj["edges"]) if obj["edges"] else np.zeros((0, 3), dtype=np.int64)
        if edges.shape[1:] != (3,) or edges.dtype.kind not in "iu":
            raise ValueError
    except KeyError as exc:
        raise DataError(f"graph JSON missing field {exc}") from None
    except ValueError:  # also raised by np.array for rows of unequal length
        raise DataError("graph JSON edges must be [i, j, w] rows of integers") from None
    return MultiGraph(node_ids, tuple(edges.T), directed, loops)


def save_graph(g: MultiGraph, path) -> None:
    """Write ``json.dump(graph_to_json(g), fh, indent=2, sort_keys=True)``
    and a newline, byte for byte, without the pure-Python encoder that
    ``indent`` forces on every edge row.

    The small fields go through ``json.dumps`` with an empty edge list;
    the edge rows are then spliced in, one value per line. The splice
    point is the first ``"edges": []``: with sorted keys only
    ``"directed": <bool>`` precedes it.
    """
    head = {"n_nodes": g.n_nodes, "directed": g.directed, "loops": g.loops_allowed,
            "node_ids": list(g.node_ids), "edges": []}
    text = json.dumps(head, indent=2, sort_keys=True)
    if g.n_links:
        rows = ",\n".join(f"    [\n      {i},\n      {j},\n      {w}\n    ]"
                          for i, j, w in zip(*(a.tolist() for a in g.edge_arrays())))
        text = text.replace('"edges": []', f'"edges": [\n{rows}\n  ]', 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def write_json(obj, path) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path) -> MultiGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


def write_block_assignment(g: MultiGraph, blocks: BlockAssignment, path) -> None:
    """Write "node_label block" lines in node order."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, b in zip(g.node_ids, blocks.labels):
            fh.write(f"{label} {b}\n")


def read_block_assignment(g: MultiGraph, stream) -> BlockAssignment:
    """Read "node_label block" lines; blocks are renumbered densely in
    ascending numeric order of the labels found."""
    raw: dict = {}
    for lineno, text in _lines(stream):
        parts = text.split()  # commas are not separators here
        if len(parts) != 2:
            raise ParseError(f"expected 'node block', got {len(parts)} fields", line=lineno)
        try:
            raw[parts[0]] = int(parts[1])
        except ValueError:
            raise ParseError(f"block label {parts[1]!r} is not an integer", line=lineno) from None
    missing = [lab for lab in g.node_ids if lab not in raw]
    if missing:
        raise DataError(f"block file is missing {len(missing)} nodes (first: {missing[0]!r})")
    values = sorted(set(raw.values()))
    remap = {v: k for k, v in enumerate(values)}
    labels = tuple(remap[raw[lab]] for lab in g.node_ids)
    return BlockAssignment(labels=labels, n_blocks=len(values))
