"""Output checks: simulated outcomes against a pinned reference.

An episode's *outcome* is each flow's :func:`repro.stats.export.flow_row`
fields that describe what the simulation did (state, terminal, bytes
sent, delivered and dropped, flow completion time) plus the per-port
link-utilization maxima.  Implementation counters (rate solves, queue
health, reroute counts) are deliberately left out: a change that only
makes the program faster may move them.

For the default seed the outcome is compared with ``reference/``; for
any other seed each cycle is compared with the run's first cycle.  Every
outcome must also satisfy the invariants in :func:`invariant_failures`.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
from typing import Dict, List, Optional, Set

from repro.stats.export import flow_row

from workloads import IXP_RATE_LIMIT_BPS

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

FIELDS = ("state", "terminal", "bytes_sent", "bytes_delivered", "bytes_dropped", "fct_s")

#: flow_row rounds byte counters to 3 decimals and FCTs to 9, so a
#: value may move by one unit in the last place without a real change.
ABS_TOL = {"bytes_sent": 2e-3, "bytes_delivered": 2e-3, "bytes_dropped": 2e-3, "fct_s": 2e-9}
REL_TOL = 1e-9
LINK_TOL = 1e-9


def outcome(result) -> dict:
    """The comparable outcome of one episode's :class:`repro.RunResult`."""
    flows = {}
    for flow in result.flows:
        row = flow_row(flow)
        flows[str(row["flow_id"])] = [row[name] for name in FIELDS]
    links = {
        f"{node}:{port}": value
        for (node, port), value in sorted(result.link_max_utilization.items())
    }
    return {"flows": flows, "links": links}


def _same(field: str, a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        return abs(a - b) <= ABS_TOL[field] + REL_TOL * max(abs(a), abs(b))
    return a == b


def mismatched_flows(actual: dict, expected: dict) -> Set[str]:
    """Ids of flows whose outcome differs (missing or extra flows too)."""
    bad = set(actual["flows"]) ^ set(expected["flows"])
    for flow_id, row in actual["flows"].items():
        ref = expected["flows"].get(flow_id)
        if ref is None:
            continue
        if any(not _same(f, a, b) for f, a, b in zip(FIELDS, row, ref)):
            bad.add(flow_id)
    return bad


def mismatched_links(actual: dict, expected: dict) -> List[str]:
    keys = set(actual["links"]) | set(expected["links"])
    return sorted(
        key
        for key in keys
        if key not in actual["links"]
        or key not in expected["links"]
        or abs(actual["links"][key] - expected["links"][key]) > LINK_TOL
    )


def invariant_failures(out: dict, episode) -> Set[str]:
    """Ids of flows breaking a property every correct run has.

    Byte counters are finite and non-negative and nothing is delivered
    that was not sent; a completed flow has a positive completion time;
    no link runs above its capacity.  On ``ixp_replay`` the blackholed
    member receives nothing and no flow of the rate-limited pair runs
    above the meter rate.
    """
    bad: Set[str] = set()
    for flow_id, (state, _terminal, sent, delivered, dropped, fct) in out["flows"].items():
        counters = (sent, delivered, dropped)
        if any(not math.isfinite(v) or v < -ABS_TOL["bytes_sent"] for v in counters):
            bad.add(flow_id)
        elif delivered > sent * (1 + REL_TOL) + ABS_TOL["bytes_sent"]:
            bad.add(flow_id)
        elif state == "completed" and not (fct is not None and fct > 0):
            bad.add(flow_id)
    if any(value > 1 + 1e-6 or value < 0 for value in out["links"].values()):
        bad.add("links")
    roles = episode.roles
    if not roles:
        return bad
    for flow in episode.flows:
        flow_id = str(flow.flow_id)
        delivered = out["flows"][flow_id][3]
        if flow.dst == roles["victim"] and delivered > 0:
            bad.add(flow_id)
        if flow.src == roles["limited_src"] and flow.dst == roles["limited_dst"]:
            # The flow engine caps each flow through a meter at the
            # meter rate (it does not share the rate among the meter's
            # flows), so the bound holds per flow.
            end = flow.end_time if flow.end_time is not None else episode.until
            allowed_bits = IXP_RATE_LIMIT_BPS * (end - flow.start_time) * (1 + 1e-6)
            if 8 * delivered > allowed_bits + 8 * ABS_TOL["bytes_delivered"]:
                bad.add(flow_id)
    return bad


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_reference(workload: str, seed: int) -> Optional[List[dict]]:
    """The pinned outcomes of every episode, or None when the file is
    absent or pinned for another seed."""
    path = reference_path(workload)
    if not os.path.exists(path):
        return None
    with gzip.open(path, "rt") as handle:
        doc = json.load(handle)
    if doc["seed"] != seed:
        return None
    return doc["episodes"]


def write_reference(workload: str, seed: int, outcomes: List[dict]) -> str:
    path = reference_path(workload)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    doc: Dict = {"workload": workload, "seed": seed, "fields": FIELDS, "episodes": outcomes}
    # mtime=0 keeps the file byte-identical when regenerated unchanged.
    with gzip.GzipFile(path, "wb", mtime=0) as raw, io.TextIOWrapper(raw) as handle:
        json.dump(doc, handle, separators=(",", ":"), sort_keys=True)
    return path
