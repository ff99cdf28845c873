"""Table-1 twins: synthetic contact logs that match a dataset's (N, M, m).

The 12 Sociopatterns datasets of the paper's Table 1 are not shipped with
the repository, so the benchmark generates a stand-in for a row: an
undirected, loop-free contact log over exactly N nodes with exactly M
connected pairs and m contacts. The twin plants what the models are
built to find:

- blocks: nodes fall into B groups, and pairs inside a group are more
  likely to be active and to carry more contacts;
- degree heterogeneity: each node has a log-normal propensity that
  scales both its gating weight and its contact rate;
- zero inflation: exactly M pairs are active (gated on); every other
  pair carries no contact at all, however high its rate.

Each active pair receives one contact, so M is hit exactly; the other
m - M contacts are spread over the active pairs multinomially by rate,
so m is hit exactly as well. Every node is given at least one active
pair, so the log names all N nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (N, M, m) per dataset, as in the paper's Table 1
TABLE1 = {
    "HS13": (327, 5818, 188508),
    "SFHH": (403, 9565, 70261),
    "HS12": (180, 2220, 45047),
    "WP": (92, 755, 9827),
    "WP15": (217, 4274, 78249),
    "HS11": (126, 1709, 28561),
    "Thiers11": (126, 1709, 28561),
    "LyonSchool": (242, 8317, 125773),
    "HT09": (113, 2196, 20818),
    "HO": (75, 1139, 32424),
    "KH": (47, 504, 32643),
    "BB": (13, 78, 63095),
}

_WITHIN_BLOCK_AFFINITY = 8.0
_CONTACT_STEP_S = 20  # Sociopatterns sensors record contacts in 20 s slots


@dataclass(frozen=True)
class Twin:
    """A generated graph: per-pair contact counts over the upper triangle."""

    n: int
    rows: np.ndarray      # i of each active pair (i < j)
    cols: np.ndarray      # j of each active pair
    counts: np.ndarray    # contacts per active pair, all >= 1
    blocks: np.ndarray    # planted block of each node
    labels: tuple         # string label of each node

    @property
    def n_links(self) -> int:
        return int(self.counts.size)

    @property
    def n_contacts(self) -> int:
        return int(self.counts.sum())


def make_twin(n: int, n_links: int, n_contacts: int, rng: np.random.Generator) -> Twin:
    """Draw a twin with exactly (n, n_links, n_contacts) = (N, M, m)."""
    n_pairs = n * (n - 1) // 2
    if not (n >= 2 and n <= n_links <= n_pairs and n_links <= n_contacts):
        raise ValueError(f"no undirected twin has (N, M, m) = ({n}, {n_links}, {n_contacts})")
    n_blocks = max(2, round(n / 36))
    blocks = np.concatenate([np.arange(n_blocks), rng.integers(0, n_blocks, n - n_blocks)])
    rng.shuffle(blocks)
    theta = rng.lognormal(0.0, 0.6, n)

    ii, jj = np.triu_indices(n, k=1)
    affinity = np.where(blocks[ii] == blocks[jj], _WITHIN_BLOCK_AFFINITY, 1.0)
    gate_weight = theta[ii] * theta[jj] * affinity

    # one active pair per node so that every node shows up in the log
    active = np.zeros(n_pairs, dtype=bool)
    row_start = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    for v in rng.permutation(n):
        partners = np.delete(np.arange(n), v)
        lo, hi = np.minimum(v, partners), np.maximum(v, partners)
        pos = row_start[lo] + (hi - lo - 1)
        w = gate_weight[pos]
        active[rng.choice(pos, p=w / w.sum())] = True
    # the remaining links: weighted sampling without replacement through
    # exponential keys (Efraimidis & Spirakis 2006)
    n_rest = n_links - int(active.sum())
    if n_rest > 0:
        idle = np.flatnonzero(~active)
        keys = rng.exponential(size=idle.size) / gate_weight[idle]
        active[idle[np.argpartition(keys, n_rest - 1)[:n_rest]]] = True

    pos = np.flatnonzero(active)
    rate = gate_weight[pos] * rng.gamma(0.5, 2.0, pos.size)
    counts = 1 + rng.multinomial(n_contacts - n_links, rate / rate.sum())
    labels = tuple(str(x) for x in rng.choice(np.arange(1000, 10000), size=n, replace=False))
    twin = Twin(n=n, rows=ii[pos], cols=jj[pos], counts=counts.astype(np.int64),
                blocks=blocks, labels=labels)

    covered = np.unique(np.concatenate([twin.rows, twin.cols])).size
    if (covered, twin.n_links, twin.n_contacts) != (n, n_links, n_contacts):
        raise RuntimeError(f"twin has (N, M, m) = ({covered}, {twin.n_links}, {twin.n_contacts}),"
                           f" wanted ({n}, {n_links}, {n_contacts})")
    return twin


def contact_log_lines(twin: Twin, rng: np.random.Generator) -> str:
    """The twin as a time-ordered contact log: one "t label_i label_j" line
    per contact, with the two labels in random order."""
    src = np.repeat(twin.rows, twin.counts)
    dst = np.repeat(twin.cols, twin.counts)
    flip = rng.random(src.size) < 0.5
    src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    slots = rng.integers(0, max(1, src.size // 4), src.size)
    order = np.argsort(slots, kind="stable")
    t = 1_000_000 + _CONTACT_STEP_S * slots[order]
    lab = np.asarray(twin.labels)
    a, b = lab[src[order]], lab[dst[order]]
    return "".join(f"{x} {y} {z}\n" for x, y, z in zip(t.tolist(), a.tolist(), b.tolist()))


def write_twin(directory, n: int, n_links: int, n_contacts: int, seed) -> Twin:
    """Generate a twin from ``seed`` (an int or a sequence of ints) and write
    ``contacts.log`` and its planted blocks, ``planted_blocks.txt``, to
    ``directory``."""
    rng = np.random.default_rng(seed)
    twin = make_twin(n, n_links, n_contacts, rng)
    with open(Path(directory) / "contacts.log", "w", encoding="utf-8") as fh:
        fh.write(contact_log_lines(twin, rng))
    with open(Path(directory) / "planted_blocks.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{label} {b}\n" for label, b in zip(twin.labels, twin.blocks.tolist()))
    return twin
