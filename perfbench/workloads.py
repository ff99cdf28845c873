"""The benchmark's workloads: which CLI calls each one times, on which
Table-1 twin, and why it was chosen.

Every workload starts where a user starts, from a contact log, with
``aggregate``; then come ``detect-blocks`` (or the twin's planted
blocks), the workload's fits, and at most one of ``sample`` or
``report``. The total and the fit stage, which all three workloads
have, are end-to-end metrics; the traced run reports each other stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BLOCK_FAMILIES = frozenset({"sbm", "dcsbm", "zi_sbm", "zi_dcsbm", "zi_dcsbm_node"})
N_SAMPLES = 10
N_REALIZATIONS = 2  # the smallest ensemble `report` accepts


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str                   # Table-1 row the twin copies
    tiny: tuple                    # (N, M, m) of the twin the smoke test uses
    families: tuple                # fitted in this order
    detect: bool = True            # detected blocks, else the twin's planted ones
    sample_from: Optional[str] = None
    report: Optional[tuple] = None  # (model a, model b)

    def steps(self, d: Path, inputs: Path, seed: int) -> list:
        """(stage, argv) of every timed CLI call, in order. The twin's files
        are in ``inputs``; outputs go to ``d``."""
        graph, s = str(d / "graph.json"), str(seed)
        blocks = str(d / "blocks.txt" if self.detect else inputs / "planted_blocks.txt")
        out = [("ingest", ["aggregate", "--input", str(inputs / "contacts.log"), "--out", graph])]
        if self.detect:
            out.append(("detect", ["detect-blocks", "--input", graph, "--seed", s,
                                   "--out", blocks]))
        for fam in self.families:
            argv = ["fit", "--input", graph, "--family", fam, "--out", str(d / f"{fam}.json")]
            if fam in BLOCK_FAMILIES:
                argv += ["--blocks", blocks]
            out.append((f"fit_{fam}", argv))
        if self.sample_from:
            out.append(("sample", ["sample", "--model", str(d / f"{self.sample_from}.json"),
                                   "-n", str(N_SAMPLES), "--seed", s,
                                   "--out", str(d / "samples")]))
        if self.report:
            a, b = self.report
            out.append(("report", ["report", "--input", graph,
                                   "--model-a", str(d / f"{a}.json"),
                                   "--model-b", str(d / f"{b}.json"),
                                   "--realizations", str(N_REALIZATIONS), "--seed", s,
                                   "--out", str(d / "report")]))
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pipeline_hs13",
        why=("HS13 twin, Table 1's largest m, through aggregate, detect-blocks, eight family"
             " fits and sample: ingest, JSON, Louvain and closed-form fits; no structural"
             " metrics, no node-level fit"),
        dataset="HS13", tiny=(40, 160, 2000),
        families=("gnp", "sbm", "clcm", "dcsbm", "zi_gnp", "zi_sbm", "zi_clcm", "zi_dcsbm"),
        sample_from="zi_dcsbm"),
    Workload(
        name="report_hs13",
        why=("report of zi_dcsbm against dcsbm on the HS13 twin: realizations and"
             " structural metrics dominate, the paper's model comparison; bypasses the"
             " node-level fit and sample writes"),
        dataset="HS13", tiny=(40, 160, 2000),
        families=("dcsbm", "zi_dcsbm"), report=("zi_dcsbm", "dcsbm")),
    Workload(
        name="nodefit_wp",
        why=("zi_clcm_node and zi_dcsbm_node fits on the WP twin, planted blocks: coordinate"
             " ascent and _zip_loglik dominate; bypasses Louvain, metrics and sampling; WP as"
             " the fit is O(N^3)"),
        dataset="WP", tiny=(24, 70, 500),
        families=("zi_clcm_node", "zi_dcsbm_node"), detect=False),
)}
