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
from dataclasses import dataclass, field
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
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            return False
        if i == j and not self.loops:
            return False
        return True

    def canonical(self, i: int, j: int) -> tuple:
        """Canonical key for the pair (i <= j when undirected)."""
        if not self.admissible(i, j):
            raise DataError(f"pair ({i}, {j}) is not admissible in this pair space")
        if not self.directed and i > j:
            return (j, i)
        return (i, j)

    def pair_indices(self) -> tuple:
        """Row/column index arrays enumerating all pairs in canonical order.

        The order is fixed (row-major over the upper triangle for
        undirected graphs) so that vectorized per-pair computations are
        reproducible.
        """
        n = self.n
        if self.directed:
            ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            ii, jj = ii.ravel(), jj.ravel()
            if not self.loops:
                keep = ii != jj
                ii, jj = ii[keep], jj[keep]
        else:
            ii, jj = np.triu_indices(n, k=1)
        return ii, jj


class MultiGraph:
    """Immutable integer-count multigraph over a fixed pair space.

    Parameters
    ----------
    node_ids:
        External string labels, one per node. Position defines the
        dense index used everywhere else.
    counts:
        Mapping from (i, j) index pairs to positive integer counts.
        Keys are canonicalized; duplicate keys that map to the same
        canonical pair are summed.
    directed, loops:
        Pair-space policy flags.
    """

    def __init__(self, node_ids: Sequence[str], counts, directed: bool, loops: bool):
        ids = [str(x) for x in node_ids]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate node labels")
        self.node_ids = tuple(ids)
        self.space = PairSpace(len(ids), directed, loops)
        store: dict = {}
        for (i, j), w in dict(counts).items():
            w = int(w)
            if w < 0:
                raise DataError(f"negative count for pair ({i}, {j})")
            if w == 0:
                continue
            key = self.space.canonical(int(i), int(j))
            store[key] = store.get(key, 0) + w
        self.counts = store
        self._index = {label: k for k, label in enumerate(self.node_ids)}

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
        return sum(self.counts.values())

    @property
    def n_links(self) -> int:
        """Number of connected pairs M."""
        return len(self.counts)

    def count(self, i: int, j: int) -> int:
        return self.counts.get(self.space.canonical(i, j), 0)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DataError(f"unknown node label {label!r}") from None

    def edge_arrays(self) -> tuple:
        """(rows, cols, counts) of the connected pairs, in canonical pair order."""
        keys = np.array(list(self.counts), dtype=np.int64).reshape(-1, 2)
        w = np.fromiter(self.counts.values(), dtype=np.int64, count=len(self.counts))
        order = np.argsort(_pair_positions(self.space, keys[:, 0], keys[:, 1]))
        return keys[order, 0], keys[order, 1], w[order]

    def count_vector(self) -> np.ndarray:
        """Counts over the full pair space in canonical enumeration order."""
        vec = np.zeros(self.space.size, dtype=np.int64)
        rows, cols, w = self.edge_arrays()
        vec[_pair_positions(self.space, rows, cols)] = w
        return vec

    def dense_matrix(self) -> np.ndarray:
        """Dense count matrix; symmetric for undirected graphs."""
        n = self.n_nodes
        mat = np.zeros((n, n), dtype=np.int64)
        rows, cols, w = self.edge_arrays()
        mat[rows, cols] = w
        if not self.directed:
            mat[cols, rows] = w
        return mat

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return (f"MultiGraph(n={self.n_nodes}, {kind}, loops={self.loops_allowed}, "
                f"M={self.n_links}, m={self.n_multiedges})")


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


def parse_contact_log(stream) -> TemporalContactLog:
    """Parse a contact log with lines "t i j" (whitespace or tab separated).

    Extra fields are ignored, "#" starts a comment, and gzip input is
    detected from the magic bytes. Records are returned sorted by
    timestamp with the original label strings preserved.
    """
    records = []
    with _open_maybe_gzip(stream) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
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
    labels = log.labels()
    index = {lab: k for k, lab in enumerate(labels)}
    if time_window is None:
        selected = log.records
    else:
        t0, t1 = time_window
        selected = [r for r in log.records if t0 <= r[0] < t1]
        if not selected:
            raise DataError(f"time window [{t0}, {t1}) contains no records")
    counts: dict = {}
    for _, a, b in selected:
        i, j = index[a], index[b]
        key = (i, j) if i < j else (j, i)
        counts[key] = counts.get(key, 0) + 1
    return MultiGraph(labels, counts, directed=False, loops=False)


def parse_weighted_edgelist(stream, directed: bool, loops: bool) -> MultiGraph:
    """Parse lines "i j w" with positive integer weights into a MultiGraph.

    Duplicate pairs accumulate. Node labels are mapped to dense indices
    in order of first appearance.
    """
    index: dict = {}
    counts: dict = {}

    def node(label):
        if label not in index:
            index[label] = len(index)
        return index[label]

    n_lines = 0
    with _open_maybe_gzip(stream) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
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
            i, j = node(a), node(b)
            if not directed and i > j:
                i, j = j, i
            counts[(i, j)] = counts.get((i, j), 0) + w
            n_lines += 1
    if n_lines == 0:
        raise ParseError("no edges found")
    return MultiGraph(list(index), counts, directed=directed, loops=loops)


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
    P = g.n_pairs
    M = g.n_links
    m = g.n_multiedges
    vec = g.count_vector()
    try:
        kurt = excess_kurtosis(vec)
    except Exception:
        kurt = float("nan")
    return GraphSummary(
        n_nodes=g.n_nodes,
        n_links=M,
        n_multiedges=m,
        density=M / P,
        multiedge_density=m / P,
        excess_kurtosis=kurt,
    )


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
    pairs = np.zeros((B, B), dtype=np.int64)
    if g.directed:
        pairs[:] = np.outer(sizes, sizes)
        if not g.loops_allowed:
            pairs[np.diag_indices(B)] -= sizes
    else:
        pairs[:] = np.outer(sizes, sizes)
        pairs[np.diag_indices(B)] = sizes * (sizes - 1) // 2
        # keep only the upper triangle populated plus symmetric mirror
        m = m + m.T - np.diag(np.diag(m))
        links = links + links.T - np.diag(np.diag(links))
        pairs = np.triu(pairs) + np.triu(pairs, k=1).T
    if g.directed:
        kappa_out = m.sum(axis=1)
        kappa_in = m.sum(axis=0)
    else:
        kappa_out = m.sum(axis=1) + np.diag(m)
        kappa_in = kappa_out
    return BlockTallies(
        m=m,
        links=links,
        pairs=pairs,
        n_per_block=sizes,
        kappa_out=kappa_out,
        kappa_in=kappa_in,
    )


# -- prefix series -----------------------------------------------------------


def prefix_series(log: TemporalContactLog, n_points: int) -> list:
    """Statistics (m, M, rho, d) of growing time prefixes.

    Prefixes end at ``n_points`` equally spaced thresholds between the
    first and last timestamp (inclusive), so the final entry matches the
    aggregation of the full log. Counting is done by replaying the
    sorted records once.
    """
    if n_points < 2:
        raise DataError("need at least two prefix points")
    labels = log.labels()
    index = {lab: k for k, lab in enumerate(labels)}
    P = len(labels) * (len(labels) - 1) // 2
    t0, t1 = log.t_min, log.t_max
    thresholds = [t0 + (t1 - t0) * k / (n_points - 1) for k in range(n_points)]
    seen: dict = {}
    m = 0
    out = []
    pos = 0
    records = log.records
    for tau in thresholds:
        while pos < len(records) and records[pos][0] <= tau:
            _, a, b = records[pos]
            i, j = index[a], index[b]
            key = (i, j) if i < j else (j, i)
            seen[key] = seen.get(key, 0) + 1
            m += 1
            pos += 1
        M = len(seen)
        out.append((m, M, m / P if P else float("nan"), M / P if P else float("nan")))
    return out


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
        counts = {(int(i), int(j)): int(w) for i, j, w in obj["edges"]}
        return MultiGraph(obj["node_ids"], counts, bool(obj["directed"]), bool(obj["loops"]))
    except KeyError as exc:
        raise DataError(f"graph JSON missing field {exc}") from None


def save_graph(g: MultiGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(g), fh, indent=2, sort_keys=True)
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
    with _open_maybe_gzip(stream) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
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
